/* The package's native helpers, built and loaded by `_native.py`: the
   patience LIS kernel, the relabel that feeds it each pair of members, and
   the PERMSET value-line codec.  Words are int32: every ground set is at
   most 2^24, so each entry and each rank fits. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Fill tops[from..to) with the sentinel INT32_MAX. */
static void pad(int32_t *tops, ptrdiff_t from, ptrdiff_t to)
{
    for (ptrdiff_t i = from; i < to; i++)
        tops[i] = INT32_MAX;
}

/* Length of the longest strictly increasing subsequence of a[0..n), by
   patience sorting: tops[0..len) holds the smallest top of each pile, and
   each value replaces the first top that is not below it.  tops is the
   caller's scratch, with room for n entries.

   tops[0..cap) stays sorted: its tail past len is padded with INT32_MAX, so
   starting a new pile is an overwrite like any other, and the search always
   takes log2(cap) steps with no data-dependent branch.  cap starts at 64 and
   doubles, up to n, whenever the piles fill it.  Before that search, the
   pile p the previous value landed on and its right neighbour p + 1 are
   tried: most values of a digit-set word land there, and these branches
   predict well.  On random words few do and the check only mispredicts, so
   it is skipped while `miss`, a decaying count of values that landed
   elsewhere, is high; it settles near 256 times their share, so the check
   runs while about half the values or more land on p or p + 1.  len is
   counted, not read off the sentinels, so a word holding INT32_MAX itself
   would still be measured right; the package's words, relabeled members and
   ranks, lie in 0..n-1 and never do. */
ptrdiff_t lis_length(const int32_t *a, ptrdiff_t n, int32_t *tops)
{
    ptrdiff_t cap = n < 64 ? n : 64, len = 0, p = 0;
    unsigned miss = 0;
    pad(tops, 0, cap);
    for (ptrdiff_t i = 0; i < n; i++) {
        int32_t v = a[i];
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
            const int32_t *base = tops;
            ptrdiff_t m = cap;
            while (m > 1) {
                ptrdiff_t half = m / 2;
                base += (base[half] < v) * half;
                m -= half;
            }
            p = base - tops + (*base < v);
        }
    place:
        miss = miss - miss / 8 + ((size_t)(p - prev) > 1) * 32u;
        tops[p] = v;
        if (p == len && ++len == cap && cap < n) {
            ptrdiff_t grown = 2 * cap < n ? 2 * cap : n;
            pad(tops, cap, grown);
            cap = grown;
        }
    }
    return len;
}

/* Invert the word a[0..n): pos[a[i]] = i, so pos holds each value's index.
   a must be a rearrangement of 0..n-1, as every member is. */
void invert(const int32_t *a, ptrdiff_t n, int32_t *pos)
{
    for (ptrdiff_t i = 0; i < n; i++)
        pos[a[i]] = (int32_t)i;
}

/* LIS of the word a[0..n) relabeled through pos: word[i] = pos[a[i]], then
   lis_length(word, n, tops).  With pos the inverse of member b, that is the
   LCS of members a and b.  a must hold only indices into pos, as a member of
   the same ground set does.  lis_length is called, not inlined: a relabel
   fused with an inlined copy made lattice sweeps slower. */
ptrdiff_t relabel_lis(const int32_t *pos, const int32_t *a, ptrdiff_t n,
                      int32_t *word, int32_t *tops)
{
    for (ptrdiff_t i = 0; i < n; i++)
        word[i] = pos[a[i]];
    return lis_length(word, n, tops);
}

/* 10^0 .. 10^9: a value v below 2^32 is as wide as the count of entries <= v. */
static const uint32_t POWERS_OF_TEN[10] = {
    1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u, 10000000u, 100000000u,
    1000000000u,
};

/* The two ASCII digits of each of 00..99. */
static const char DIGIT_PAIRS[] =
    "00010203040506070809" "10111213141516171819" "20212223242526272829"
    "30313233343536373839" "40414243444546474849" "50515253545556575859"
    "60616263646566676869" "70717273747576777879" "80818283848586878889"
    "90919293949596979899";

/* Render the 0-based word w[0..n) as its 1-based PERMSET value line: each
   w[i] + 1 in decimal, one space between values, then '\n'.  Writes at most
   cap bytes to out and returns the count written, or -1 (out partly
   written) for a negative entry or a line longer than cap. */
ptrdiff_t render_line(const int32_t *w, ptrdiff_t n, uint8_t *out, ptrdiff_t cap)
{
    uint8_t *p = out;
    for (ptrdiff_t i = 0; i < n; i++) {
        if (w[i] < 0)
            return -1;
        uint32_t v = (uint32_t)w[i] + 1u;
        ptrdiff_t width = 1;
        while (width < 10 && v >= POWERS_OF_TEN[width])
            width++;
        if (cap - (p - out) <= width)
            return -1;
        /* digits right to left, two at a time */
        uint8_t *q = p + width;
        for (; v >= 100; v /= 100) {
            q -= 2;
            memcpy(q, DIGIT_PAIRS + 2 * (v % 100), 2);
        }
        if (v >= 10)
            memcpy(q - 2, DIGIT_PAIRS + 2 * v, 2);
        else
            q[-1] = (uint8_t)('0' + v);
        p += width;
        *p++ = ' ';
    }
    if (p > out)
        p[-1] = '\n';
    return p - out;
}

/* Parse line[0..len) as the canonical value line of a member on [n]: n
   decimal tokens, each in 1..n with no leading zero, one space between
   tokens, then '\n' or the end of the line, that together are a
   rearrangement of 1..n.  Returns 1 with each value minus 1 in word[0..n),
   or 0 (word partly written) for any other line.  A token is cut off at 9
   digits, so its value never overflows an int32; a valid one, at most
   n <= 2^24, has 8. */
int parse_line(const uint8_t *line, ptrdiff_t len, ptrdiff_t n, int32_t *word)
{
    const uint8_t *p = line, *end = line + len;
    for (ptrdiff_t i = 0; i < n; i++) {
        if (i > 0 && (p == end || *p++ != ' '))
            return 0;
        if (p == end || *p < '1' || *p > '9')
            return 0;
        const uint8_t *start = p;
        int32_t v = 0;
        for (; p < end && *p >= '0' && *p <= '9'; p++) {
            if (p - start == 9)
                return 0;
            v = 10 * v + (*p - '0');
        }
        if (v > n)
            return 0;
        word[i] = v - 1;
    }
    if (p != end && (end - p != 1 || *p != '\n'))
        return 0;
    /* Each value marks its own slot with bit 30, free since every value is
       below 10^9 < 2^30, so one that finds its slot marked is a repeat; n
       values in 0..n-1 with no repeat are a rearrangement.  Then unmark. */
    const int32_t mark = INT32_C(1) << 30;
    for (ptrdiff_t i = 0; i < n; i++) {
        int32_t v = word[i] & ~mark;
        if (word[v] & mark)
            return 0;
        word[v] |= mark;
    }
    for (ptrdiff_t i = 0; i < n; i++)
        word[i] &= ~mark;
    return 1;
}
