#include <stddef.h>
#include <stdint.h>

/* Length of the longest strictly increasing subsequence of a[0..n), by
   patience sorting: tops[0..len) holds the smallest top of each pile, and
   each value replaces the first top that is not below it.  tops must have
   room for n entries; the caller owns it, so a sweep reuses one buffer. */
ptrdiff_t lis_length(const int64_t *a, ptrdiff_t n, int64_t *tops)
{
    ptrdiff_t len = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        int64_t v = a[i];
        ptrdiff_t lo = 0, hi = len;
        while (lo < hi) {
            ptrdiff_t mid = lo + (hi - lo) / 2;
            if (tops[mid] < v)
                lo = mid + 1;
            else
                hi = mid;
        }
        tops[lo] = v;
        len += lo == len;
    }
    return len;
}
