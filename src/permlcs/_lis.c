#include <stddef.h>
#include <stdint.h>

/* Fill tops[from..to) with the sentinel INT64_MAX. */
static void pad(int64_t *tops, ptrdiff_t from, ptrdiff_t to)
{
    for (ptrdiff_t i = from; i < to; i++)
        tops[i] = INT64_MAX;
}

/* Length of the longest strictly increasing subsequence of a[0..n), by
   patience sorting: tops[0..len) holds the smallest top of each pile, and
   each value replaces the first top that is not below it.  tops must have
   room for n entries; the caller owns it, so a sweep reuses one buffer.

   tops[0..cap) stays sorted: its tail past len is padded with INT64_MAX, so
   starting a new pile is an overwrite like any other, and the search always
   takes log2(cap) steps with no data-dependent branch.  cap starts at 64 and
   doubles, up to n, whenever the piles fill it.  Before that search, the
   pile p the previous value landed on and its right neighbour p + 1 are
   tried: most values of a digit-set word land there, and these branches
   predict well.  On random words few do and the check only mispredicts, so
   it is skipped while `miss`, a decaying count of values that landed
   elsewhere, is high; it settles near 256 times their share, so the check
   runs while about half the values or more land on p or p + 1.  len is
   counted, not read off the sentinels, because the word may hold INT64_MAX
   itself. */
ptrdiff_t lis_length(const int64_t *a, ptrdiff_t n, int64_t *tops)
{
    ptrdiff_t cap = n < 64 ? n : 64, len = 0, p = 0;
    unsigned miss = 0;
    pad(tops, 0, cap);
    for (ptrdiff_t i = 0; i < n; i++) {
        int64_t v = a[i];
        ptrdiff_t prev = p;
        /* len < cap here, so tops[len] is a sentinel and the pile is at most
           len; p <= len, and p + 1 is read only once p < len. */
        if (miss < 128) {
            if (tops[p] < v) {
                if (v <= tops[p + 1]) {
                    p++;
                    goto place;
                }
            } else if (p == 0 || tops[p - 1] < v) {
                goto place;
            }
        }
        {
            const int64_t *base = tops;
            ptrdiff_t m = cap;
            while (m > 1) {
                ptrdiff_t half = m / 2;
                base += (base[half] < v) * half;
                m -= half;
            }
            p = base - tops + (*base < v);
        }
    place:
        miss = miss - miss / 8 + ((size_t)(p - prev) > 1) * 32;
        tops[p] = v;
        if (p == len && ++len == cap && cap < n) {
            ptrdiff_t grown = 2 * cap < n ? 2 * cap : n;
            pad(tops, cap, grown);
            cap = grown;
        }
    }
    return len;
}
