/* One radial part, from its points to its range-coded occupancy stream and back.
 *
 * lattice_codes turns a part's coordinate columns into one leaf Morton code
 * per point, with coords._lattice_indices' float64 arithmetic and
 * octree._interleave's bit order. The caller sorts and deduplicates the
 * codes. encode_part derives their breadth-first occupancy symbols, one byte
 * per node, levels 1..depth, and range-codes them; decode_part decodes the
 * symbols, leaf_codes expands them to the leaves' Morton codes by their set
 * bits, and code_points turns those codes back into lattice coordinates with
 * coords.lattice_points' float64 arithmetic (built with -ffp-contract=off, so
 * index * step + offset rounds twice, as in numpy). The coder
 * is the compiled twin of the per-node Python coder, kernel._encode_per_node
 * and kernel._decode_per_node: an entropy.AdaptiveContextModel over the
 * contexts of octree.ContextCursor. FORMAT.md specifies the bits. Every buffer
 * belongs to the caller; the functions return a count, or a negative error
 * code with details in info[0..1], and never write past a buffer's capacity.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TOP (1u << 24)
#define COUNT_CAP 65026 /* raw total past which counts halve: 2^16 - 510 */
#define LEVEL_CAP 16
#define N_CONTEXTS (256 * 8 * LEVEL_CAP)

enum {
    ERR_EXHAUSTED = -1,    /* info[0]: payload position of the missing byte */
    ERR_DESYNC = -2,       /* target >= total */
    ERR_COUNT_INSIDE = -3, /* info[0]: level, info[1]: its node count */
    ERR_COUNT_EXCEEDS = -4, /* info[0]: nodes the tree holds */
    ERR_NOMEM = -5,
    ERR_CAPACITY = -6,     /* encoder output buffer too small */
    ERR_SHAPE = -7,        /* a depth out of range, or leaves that disagree with a tree */
    ERR_LEAVES = -8,       /* leaf codes not sorted, unique and below 8^depth */
    ERR_RADIUS = -9,       /* a radial index past the 2^depth lattice */
};

/* Fenwick tree over f_s = n_s + 1 (slot 0 unused) and raw counts n_s (slot 0:
 * their total). Totals stay at or below 2^16 - 255, so 16 bits hold both. */
typedef struct {
    uint16_t tree[256];
    uint16_t counts[256];
} Context;

typedef struct {
    Context *slot[N_CONTEXTS];
} Model;

static Model *model_new(void) { return calloc(1, sizeof(Model)); }

static void model_free(Model *m) {
    for (int i = 0; i < N_CONTEXTS; i++) free(m->slot[i]);
    free(m);
}

/* Context of a node: parent occupancy byte, octant 0..7, level (capped at 16). */
static Context *context(Model *m, unsigned parent, unsigned octant, int level) {
    int capped = level < LEVEL_CAP ? level : LEVEL_CAP;
    Context **p = &m->slot[(parent * 8 + octant) * LEVEL_CAP + (unsigned)capped - 1];
    if (!*p) {
        Context *c = calloc(1, sizeof(Context));
        if (!c) return NULL;
        for (int i = 1; i < 256; i++) c->tree[i] = (uint16_t)(i & -i);
        *p = c;
    }
    return *p;
}

static void update(Context *c, unsigned sym) {
    c->counts[sym]++;
    if (++c->counts[0] > COUNT_CAP) { /* halve, then rebuild the tree */
        unsigned total = 0;
        for (int s = 1; s < 256; s++) {
            c->counts[s] >>= 1;
            total += c->counts[s];
            c->tree[s] = (uint16_t)(c->counts[s] + 1);
        }
        c->counts[0] = (uint16_t)total;
        for (int i = 1; i < 256; i++) {
            int j = i + (i & -i);
            if (j < 256) c->tree[j] += c->tree[i];
        }
    } else {
        for (unsigned i = sym; i < 256; i += i & -i) c->tree[i]++;
    }
}

/* Walks the nodes of one level: the context of each node comes from the
 * occupied octants of the previous level's symbols, in breadth-first order. */
typedef struct {
    const uint8_t *parents;
    unsigned parent, mask;
} Cursor;

static void next_context(Cursor *cur, unsigned *parent, unsigned *octant) {
    if (!cur->parents) { /* the root */
        *parent = 0;
        *octant = 0;
        return;
    }
    while (!cur->mask) cur->mask = cur->parent = *cur->parents++;
    *parent = cur->parent;
    *octant = (unsigned)__builtin_ctz(cur->mask);
    cur->mask &= cur->mask - 1;
}

static int64_t popcount_sum(const uint8_t *s, int64_t n) {
    int64_t total = 0;
    for (int64_t i = 0; i < n; i++) total += __builtin_popcount(s[i]);
    return total;
}

typedef struct {
    uint64_t low;
    uint32_t range;
    uint8_t cache;
    int64_t cache_size, pos, cap;
    uint8_t *out;
} Encoder;

static int shift_low(Encoder *e) {
    if (e->low < 0xFF000000u || e->low > 0xFFFFFFFFu) {
        uint8_t carry = (uint8_t)(e->low >> 32);
        if (e->pos + e->cache_size > e->cap) return ERR_CAPACITY;
        e->out[e->pos++] = (uint8_t)(e->cache + carry);
        for (; e->cache_size > 1; e->cache_size--) e->out[e->pos++] = (uint8_t)(0xFF + carry);
        e->cache = (uint8_t)(e->low >> 24);
        e->cache_size = 0;
    }
    e->cache_size++;
    e->low = (e->low << 8) & 0xFFFFFFFFu;
    return 0;
}

/* Breadth-first symbols of the depth-level octree over n sorted, unique leaf
 * Morton codes below 8^depth, into symbols[0..count); cells is n codes of
 * scratch. Levels are built bottom up. Each is scanned from its last node, so
 * its symbols land in symbols[0..cap) just below those of the level beneath,
 * and its parents' cells fill cells[..n) from the end, over children already
 * read: a level never has more nodes than the level below has read so far.
 * Returns the symbol count. */
static int64_t octree_symbols(const int64_t *codes, int64_t n, int depth, int64_t *cells, uint8_t *symbols,
                              int64_t cap) {
    if (n < 1 || depth < 1 || depth > 20) return ERR_LEAVES;
    for (int64_t i = 0; i < n; i++)
        if (codes[i] < 0 || codes[i] >> 3 * depth || (i && codes[i] <= codes[i - 1])) return ERR_LEAVES;
    const int64_t *u = codes;
    int64_t lo = 0, w = cap;
    for (int level = depth; level >= 1; level--) {
        int64_t k = n;
        for (int64_t i = n - 1; i >= lo;) {
            int64_t parent = u[i] >> 3;
            unsigned sym = 0;
            for (; i >= lo && u[i] >> 3 == parent; i--) sym |= 1u << (u[i] & 7);
            if (w == 0) return ERR_CAPACITY;
            symbols[--w] = (uint8_t)sym;
            cells[--k] = parent;
        }
        u = cells;
        lo = k;
    }
    memmove(symbols, symbols + w, (size_t)(cap - w));
    return cap - w;
}

/* Range-code the octree over n sorted, unique leaf Morton codes below 8^depth
 * into out[0..out_cap), its symbols built by octree_symbols into symbols[0..cap)
 * with cells as scratch. Returns the payload length; *count is the symbol count. */
int64_t encode_part(const int64_t *codes, int64_t n, int depth, int64_t *cells, uint8_t *symbols, int64_t cap,
                    uint8_t *out, int64_t out_cap, int64_t *count) {
    int64_t total = octree_symbols(codes, n, depth, cells, symbols, cap);
    if (total < 0) return total;
    *count = total;
    Model *m = model_new();
    if (!m) return ERR_NOMEM;
    Encoder e = {0, 0xFFFFFFFFu, 0, 1, 0, out_cap, out};
    int64_t err = 0, start = 0, nodes = 1;
    const uint8_t *parents = NULL;
    for (int level = 1; level <= depth && !err; level++) {
        Cursor cur = {parents, 0, 0};
        for (int64_t k = start; k < start + nodes && !err; k++) {
            unsigned parent, octant, sym = symbols[k];
            next_context(&cur, &parent, &octant);
            Context *c = context(m, parent, octant, level);
            if (!c) { err = ERR_NOMEM; break; }
            uint32_t lo = 0;
            for (unsigned i = sym - 1; i; i &= i - 1) lo += c->tree[i];
            uint32_t r = e.range / ((uint32_t)c->counts[0] + 255);
            e.low += (uint64_t)r * lo;
            e.range = r * ((uint32_t)c->counts[sym] + 1);
            while (e.range < TOP && !err) {
                err = shift_low(&e);
                e.range <<= 8;
            }
            update(c, sym);
        }
        parents = symbols + start;
        start += nodes;
        nodes = popcount_sum(parents, nodes);
    }
    for (int i = 0; i < 5 && !err; i++) err = shift_low(&e);
    model_free(m);
    return err ? err : e.pos;
}

/* Decode symbol_count breadth-first symbols of a depth-level octree from
 * payload[0..len) into symbols[0..symbol_count). Returns the leaf count. */
int64_t decode_part(const uint8_t *payload, int64_t len, int depth, int64_t symbol_count,
                    uint8_t *symbols, int64_t *info) {
    if (len < 5) {
        info[0] = len;
        return ERR_EXHAUSTED;
    }
    Model *m = model_new();
    if (!m) return ERR_NOMEM;
    int64_t pos = 5, err = 0, start = 0, nodes = 1;
    uint32_t range = 0xFFFFFFFFu, code = 0;
    for (int i = 1; i < 5; i++) code = code << 8 | payload[i]; /* byte 0 is always zero */
    const uint8_t *parents = NULL;
    for (int level = 1; level <= depth && !err; level++) {
        if (nodes > symbol_count - start) {
            info[0] = level;
            info[1] = nodes;
            err = ERR_COUNT_INSIDE;
            break;
        }
        Cursor cur = {parents, 0, 0};
        for (int64_t k = start; k < start + nodes; k++) {
            unsigned parent, octant;
            next_context(&cur, &parent, &octant);
            Context *c = context(m, parent, octant, level);
            if (!c) { err = ERR_NOMEM; break; }
            uint32_t total = (uint32_t)c->counts[0] + 255, r = range / total, target = code / r;
            if (target >= total) { err = ERR_DESYNC; break; }
            /* Fenwick descent to the largest p with cum(p) <= target */
            unsigned p = 0, rest = target;
            for (unsigned step = 128; step; step >>= 1) {
                if (c->tree[p + step] <= rest) {
                    p += step;
                    rest -= c->tree[p];
                }
            }
            unsigned sym = p + 1;
            code -= r * (target - rest);
            range = r * ((uint32_t)c->counts[sym] + 1);
            while (range < TOP) {
                if (pos >= len) { info[0] = pos; err = ERR_EXHAUSTED; break; }
                code = code << 8 | payload[pos++];
                range <<= 8;
            }
            if (err) break;
            update(c, sym);
            symbols[k] = (uint8_t)sym;
        }
        parents = symbols + start;
        start += nodes;
        if (!err) nodes = popcount_sum(parents, nodes);
    }
    if (!err && start != symbol_count) {
        info[0] = start;
        err = ERR_COUNT_EXCEEDS;
    }
    model_free(m);
    return err ? err : nodes;
}

/* Morton codes of the leaves of a decoded tree, in breadth-first order, into
 * codes[0..leaves). Level sizes never shrink, so each level expands in place,
 * last parent first: the children of parent j start at or after slot j. */
int64_t leaf_codes(const uint8_t *symbols, int depth, int64_t *codes, int64_t leaves) {
    int64_t start = 0, nodes = 1;
    codes[0] = 0;
    for (int level = 1; level <= depth; level++) {
        const uint8_t *s = symbols + start;
        int64_t next = popcount_sum(s, nodes), w = next;
        if (next > leaves) return ERR_SHAPE;
        for (int64_t j = nodes - 1; j >= 0; j--) {
            int64_t cell = codes[j] << 3;
            for (unsigned m = s[j]; m;) { /* set bits, highest first */
                int c = 31 - __builtin_clz(m);
                codes[--w] = cell | c;
                m ^= 1u << c;
            }
        }
        start += nodes;
        nodes = next;
    }
    return nodes == leaves ? nodes : ERR_SHAPE;
}

/* The low 21 bits of v moved to every third bit, bit k to bit 3k. */
static uint64_t spread(uint64_t v) {
    v &= 0x1FFFFF;
    v = (v | v << 32) & 0x1F00000000FFFFull;
    v = (v | v << 16) & 0x1F0000FF0000FFull;
    v = (v | v << 8) & 0x100F00F00F00F00Full;
    v = (v | v << 4) & 0x10C30C30C30C30C3ull;
    v = (v | v << 2) & 0x1249249249249249ull;
    return v;
}

/* Leaf Morton code of each of n points, into codes[0..n). Axis k of point i
 * is column k's element i * stride. Its index is rint((c - offset[k]) /
 * step[k]) clipped to [0, 2^depth - 1], all in float64, so no double outside
 * int64 is ever cast. With radial set, an axis-0 index past 2^depth - 1 is
 * refused instead. Codes interleave the indices, x highest in each 3-bit
 * group. Returns n. */
int64_t lattice_codes(const double *x, const double *y, const double *z, int64_t stride, int64_t n,
                      const double *offset, const double *step, int depth, int radial, int64_t *codes) {
    if (depth < 1 || depth > 20) return ERR_SHAPE;
    const double *column[3] = {x, y, z};
    const double hi = (double)((1 << depth) - 1);
    for (int64_t i = 0; i < n; i++) {
        uint64_t code = 0;
        for (int k = 0; k < 3; k++) {
            double r = rint((column[k][i * stride] - offset[k]) / step[k]);
            if (radial && k == 0 && r > hi) return ERR_RADIUS;
            r = r > 0 ? (r < hi ? r : hi) : 0; /* a NaN clips to 0 */
            code |= spread((uint64_t)r) << (2 - k);
        }
        codes[i] = (int64_t)code;
    }
    return n;
}

/* The bits of v at every third position, bit 3k to bit k: the inverse of spread. */
static uint64_t compact(uint64_t v) {
    v &= 0x1249249249249249ull;
    v = (v | v >> 2) & 0x10C30C30C30C30C3ull;
    v = (v | v >> 4) & 0x100F00F00F00F00Full;
    v = (v | v >> 8) & 0x1F0000FF0000FFull;
    v = (v | v >> 16) & 0x1F00000000FFFFull;
    v = (v | v >> 32) & 0x1FFFFF;
    return v;
}

/* Lattice coordinates of n leaf Morton codes, the inverse of lattice_codes:
 * row i of out (n x 3) is index_k * step[k] + offset[k] for the three axes,
 * rounded after the product and after the sum, as coords.lattice_points
 * computes them before any trig. Returns n. */
int64_t code_points(const int64_t *codes, int64_t n, const double *step, const double *offset, double *out) {
    for (int64_t i = 0; i < n; i++)
        for (int k = 0; k < 3; k++)
            out[3 * i + k] = (double)compact((uint64_t)codes[i] >> (2 - k)) * step[k] + offset[k];
    return n;
}
