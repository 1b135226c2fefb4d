/* The package's native helpers, built and loaded by `_native.py`: the
   patience LIS kernel, over up to four words at once, each relabeled
   through its own position array or read as it is (`lis_lanes`, the one
   entry), the inversion that gives a member its position array, and the
   PERMSET value-line codec.  Words are int32: every ground set is at most
   2^24 and every word `lis` sorts is below 2^31 long, so each entry and
   each index of its order fits. */

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* lis_lanes measures up to LANES words per call and gathers BLOCK values of
   each into a stack buffer at a time.  A word whose miss count is below GATE
   tries the neighbour piles before it searches. */
#define LANES 4
#define BLOCK 512
#define GATE 128u

/* One word's patience piles.  tops[0..len) holds the smallest top of each
   pile, and each value replaces the first top that is not below it; p is
   the pile the last value landed on, and miss a decaying count of values
   that landed on neither p nor p + 1 of the value before.

   tops[0..cap) stays sorted: its tail past len is padded with INT32_MAX, so
   starting a new pile is an overwrite like any other, and the search always
   takes log2(cap) steps with no data-dependent branch.  cap starts at 64 (n
   when smaller) and doubles, up to n, whenever the piles of a word fill it;
   the kernel allocates the tops, grows them with realloc and frees them
   before it returns.  len is counted, not read off the sentinels, so a word
   holding INT32_MAX itself would still be measured right; the package's
   words, relabeled members and orders, lie in 0..n-1 and never do. */
typedef struct {
    int32_t *tops;
    ptrdiff_t len, p;
    unsigned miss;
} Piles;

/* Fill tops[from..to) with the sentinel INT32_MAX. */
static void pad(int32_t *tops, ptrdiff_t from, ptrdiff_t to)
{
    for (ptrdiff_t i = from; i < to; i++)
        tops[i] = INT32_MAX;
}

/* Give each of w[0..count) cap padded tops (room for one when cap is 0, as
   malloc(0) may return NULL) and no pile.  Returns 0, or -1 when an
   allocation fails; every tops can be freed either way. */
static int start(Piles *w, ptrdiff_t count, ptrdiff_t cap)
{
    int status = 0;
    for (ptrdiff_t l = 0; l < count; l++) {
        w[l] = (Piles){malloc((size_t)(cap > 0 ? cap : 1) * sizeof(int32_t)), 0, 0, 0};
        if (w[l].tops == NULL)
            status = -1;
        else
            pad(w[l].tops, 0, cap);
    }
    return status;
}

/* Double *cap, up to n, on every one of w[0..count).  Returns 0, or -1 when
   realloc fails; every tops can be freed either way. */
static int grow(Piles *w, ptrdiff_t count, ptrdiff_t *cap, ptrdiff_t n)
{
    ptrdiff_t grown = 2 * *cap < n ? 2 * *cap : n;
    for (ptrdiff_t l = 0; l < count; l++) {
        int32_t *tops = realloc(w[l].tops, (size_t)grown * sizeof *tops);
        if (tops == NULL)
            return -1;
        pad(tops, *cap, grown);
        w[l].tops = tops;
    }
    *cap = grown;
    return 0;
}

/* The miss count after a value landed on pile p, the one before it on prev:
   it decays by an eighth and counts 32 for a pile other than prev, prev + 1. */
static unsigned decay(unsigned miss, ptrdiff_t p, ptrdiff_t prev)
{
    return miss - miss / 8 + ((size_t)(p - prev) > 1) * 32u;
}

/* Place a[0..m) on the piles of w[l], and whenever they fill cap below n,
   grow the tops of every one of w[0..count).  Returns 0, or -1 when realloc
   fails.  While miss is below GATE, the pile p the previous value landed on
   and its right neighbour p + 1 are tried before the search: most values of
   a digit-set word land there, and these branches predict well.  On random
   words few do and the check only mispredicts, so it is skipped while miss
   is high; miss settles near 256 times their share, so the check runs while
   about half the values or more land on p or p + 1.  lis_lanes runs this
   loop over each block of a lane whose miss count is low, and of a lane
   that is the only one whose count is high. */
static int near(Piles *w, ptrdiff_t l, ptrdiff_t count, const int32_t *a,
                ptrdiff_t m, ptrdiff_t *cap, ptrdiff_t n)
{
    Piles *x = &w[l];
    int32_t *tops = x->tops;
    ptrdiff_t len = x->len, p = x->p, top = *cap;
    unsigned miss = x->miss;
    int status = 0;
    for (ptrdiff_t i = 0; i < m; i++) {
        int32_t v = a[i];
        ptrdiff_t prev = p;
        /* len < cap here, so tops[len] is a sentinel and the pile is at most
           len; p <= len, and p + 1 is read only once p < len. */
        if (miss < GATE) {
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
            for (ptrdiff_t span = top; span > 1; span -= span / 2) {
                ptrdiff_t half = span / 2;
                base += (base[half] < v) * half;
            }
            p = base - tops + (*base < v);
        }
    place:
        miss = decay(miss, p, prev);
        tops[p] = v;
        if (p == len && ++len == top && top < n) {
            if ((status = grow(w, count, cap, n)) != 0)
                break;
            tops = x->tops;
            top = *cap;
        }
    }
    x->len = len;
    x->p = p;
    x->miss = miss;
    return status;
}

/* Invert the word a[0..n): pos[a[i]] = i, so pos holds each value's index.
   a must be a rearrangement of 0..n-1, as every member is. */
void invert(const int32_t *a, ptrdiff_t n, int32_t *pos)
{
    for (ptrdiff_t i = 0; i < n; i++)
        pos[a[i]] = (int32_t)i;
}

/* The search of near() for LANES = 4 values at once: each base[f] starts at
   the tops of its word and ends on the last one below v[f], or on the first.
   The four chains are locals, so each step's four loads issue together. */
static void search4(const int32_t **base, const int32_t *v, ptrdiff_t cap)
{
    _Static_assert(LANES == 4, "search4 runs one chain per lane");
    const int32_t *b0 = base[0], *b1 = base[1], *b2 = base[2], *b3 = base[3];
    int32_t v0 = v[0], v1 = v[1], v2 = v[2], v3 = v[3];
    for (ptrdiff_t span = cap; span > 1; span -= span / 2) {
        ptrdiff_t half = span / 2;
        b0 += b0[half] < v0 ? half : 0;
        b1 += b1[half] < v1 ? half : 0;
        b2 += b2[half] < v2 ? half : 0;
        b3 += b3[half] < v3 ? half : 0;
    }
    base[0] = b0;
    base[1] = b1;
    base[2] = b2;
    base[3] = b3;
}

/* The LIS of up to LANES words at once: for each lane l below count, which
   is 1 to LANES, out[l] is the LIS of q_l[a_l[0]], ..., q_l[a_l[n-1]], or of
   a_l itself where q_l is NULL; slots from count on are not read.  With q_l
   the inverse of member j and a_l member i, that is the LCS of the two, and
   lanes may share a q or each bring their own.  Each a_l must hold only
   indices into q_l[0..n), as a member of the same ground set does.  Returns
   0, or -1 (out unwritten) when the pile tops cannot be allocated.

   The lanes share one cap.  Each block of BLOCK values is gathered for
   every lane first, so the gather streams.  Then a lane whose miss count is
   below GATE runs near() over its block alone, and so does a lane that is
   the only one at or above it; two or more such lanes run their searches in
   one lockstep loop: each step of one lane's search waits on its last load,
   but the lanes' chains are independent, so their loads overlap. */
int lis_lanes(const int32_t *q0, const int32_t *q1, const int32_t *q2,
              const int32_t *q3, const int32_t *a0, const int32_t *a1,
              const int32_t *a2, const int32_t *a3, ptrdiff_t count,
              ptrdiff_t n, ptrdiff_t *out)
{
    const int32_t *const positions[LANES] = {q0, q1, q2, q3};
    const int32_t *const words[LANES] = {a0, a1, a2, a3};
    int32_t buf[LANES][BLOCK];
    Piles w[LANES];
    ptrdiff_t cap = n < 64 ? n : 64;
    int status = start(w, count, cap);
    for (ptrdiff_t b = 0; status == 0 && b < n; b += BLOCK) {
        ptrdiff_t m = n - b < BLOCK ? n - b : BLOCK, far[LANES], nfar = 0;
        for (ptrdiff_t l = 0; l < count; l++) {
            const int32_t *q = positions[l], *a = words[l] + b;
            if (q == NULL)
                memcpy(buf[l], a, (size_t)m * sizeof *a);
            else
                for (ptrdiff_t i = 0; i < m; i++)
                    buf[l][i] = q[a[i]];
        }
        for (ptrdiff_t l = 0; l < count; l++) {
            if (w[l].miss >= GATE) {
                far[nfar++] = l;
                continue;
            }
            if (status == 0)
                status = near(w, l, count, buf[l], m, &cap, n);
        }
        /* a lone far lane has no chain to overlap with: near() searches */
        if (nfar == 1 && status == 0) {
            status = near(w, far[0], count, buf[far[0]], m, &cap, n);
            nfar = 0;
        }
        for (ptrdiff_t i = 0; status == 0 && nfar > 0 && i < m; i++) {
            const int32_t *base[LANES];
            int32_t v[LANES];
            ptrdiff_t at[LANES];
            for (ptrdiff_t f = 0; f < LANES; f++) {
                /* slots past nfar redo the first far lane's search */
                ptrdiff_t g = far[f < nfar ? f : 0];
                base[f] = w[g].tops;
                v[f] = buf[g][i];
            }
            search4(base, v, cap);
            /* every pile first: a growth below moves the tops */
            for (ptrdiff_t f = 0; f < nfar; f++)
                at[f] = base[f] - w[far[f]].tops + (*base[f] < v[f]);
            for (ptrdiff_t f = 0; f < nfar; f++) {
                Piles *x = &w[far[f]];
                ptrdiff_t p = at[f];
                x->miss = decay(x->miss, p, x->p);
                x->p = p;
                x->tops[p] = v[f];
                if (p == x->len && ++x->len == cap && cap < n && status == 0)
                    status = grow(w, count, &cap, n);
            }
        }
    }
    for (ptrdiff_t l = 0; l < count; l++) {
        if (status == 0)
            out[l] = w[l].len;
        free(w[l].tops);
    }
    return status;
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
