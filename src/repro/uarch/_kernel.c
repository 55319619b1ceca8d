/*
 * Compiled form of the fused per-lane timing kernel (repro.uarch.batch).
 *
 * repro_run_lane() is a line-for-line port of batch._run_lane_python: the
 * same stage order (retire -> complete -> issue -> rename -> fetch ->
 * occupancy accounting), the same idle-span jump and the same inlined
 * models (L1I/L1D/unified-L2 LRU tag stores, hybrid bimodal/gshare/chooser
 * predictor, set-associative BTB, store sets, FUBMP reservations).  Every
 * counter it returns must equal the Python kernel's bit for bit; the
 * `kernel` fuzz oracle and tests/test_kernel.py compare the two.
 *
 * Python-to-C mapping of the dynamic structures:
 *   front_end, rob     contiguous sequence ranges [rename_ptr, fetch_index)
 *                      and [retire_ptr, rename_ptr): fetch and rename are in
 *                      trace order, so the deques are implicit;
 *   lsq                a queue of sequence numbers (each appended once);
 *   wake/complete      timing wheels of FIFO lists keyed by cycle; every
 *   buckets            key lies in (cycle, cycle + wheel size) when inserted;
 *   ready/busy heaps   binary min-heaps (entries are distinct sequence
 *                      numbers / cycles, so pop order matches heapq);
 *   reservations       a ring keyed by cycle, tagged so expired cycles read
 *                      as empty;
 *   dicts              flat arrays with -1 for "absent".
 *
 * Inputs arrive as an array of column pointers (the TraceFacts buffers,
 * read in place) and an array of int64 parameters; outputs are the 25
 * PipelineStats counters followed by an error sequence number and the
 * retired-entry count.  Anything the port cannot mirror exactly (an event
 * outside the wheel, a stale bucket key) returns REPRO_UNSUPPORTED and the
 * caller reruns the lane in Python.  The kernel keeps no global state and
 * every allocation is one arena freed on every return path.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_KERNEL_ABI 1

enum {
    REPRO_OK = 0,
    REPRO_WATCHDOG = 1,        /* exceeded max_cycles */
    REPRO_INTMEM_HANDLE = 2,   /* integer-memory handle, no sliding window */
    REPRO_UNISSUABLE = 3,      /* entry with no issue path */
    REPRO_UNSUPPORTED = 4,     /* rerun the lane in the Python kernel */
    REPRO_NOMEM = 5
};

/* Column pointer slots. */
enum {
    C_PC, C_NEXT_PC, C_EA, C_ADDR, C_INDEX, C_SIZE, C_FLAGS, C_KIND,
    C_LATENCY, C_SRC0, C_SRC1, C_DEST, C_NEEDS_DEST, C_IS_COND, C_IS_HANDLE,
    C_H_FLAGS, C_H_EXEC, C_H_HEADER_LAT, C_H_FU0, C_H_BMP_OFF, C_H_BMP_LEN,
    C_BMP_UNITS, C_COUNT
};

/* Parameter slots. */
enum {
    P_FETCH_WIDTH, P_RENAME_WIDTH, P_ISSUE_WIDTH, P_RETIRE_WIDTH,
    P_FRONT_END_DEPTH, P_ROB_SIZE, P_IQ_SIZE, P_LSQ_SIZE,
    P_REGISTER_READ_LATENCY, P_SCHEDULER_LATENCY, P_PHYSICAL_REGISTERS,
    P_ARCH_REGISTERS, P_PLAIN_ALU_UNITS, P_ALU_PIPELINES, P_FP_UNITS,
    P_LOAD_PORTS, P_STORE_PORTS, P_MAX_MEMORY_HANDLES, P_SLIDING_WINDOW,
    P_REDIRECT_PENALTY, P_ORDERING_PENALTY, P_REPLAY_PENALTY,
    P_PREDICTOR_ENTRIES, P_BTB_ENTRIES, P_BTB_ASSOC, P_STORE_SET_ENTRIES,
    P_I_LINE, P_I_SETS, P_I_ASSOC, P_I_HIT,
    P_D_LINE, P_D_SETS, P_D_ASSOC, P_D_HIT,
    P_L2_LINE, P_L2_SETS, P_L2_ASSOC, P_L2_HIT,
    P_MEMORY_LATENCY, P_MAX_CYCLES, P_TOTAL, P_STATIC_COUNT, P_MAX_REGISTER,
    P_COUNT
};

/* Output slots: PipelineStats field order, then error details. */
enum {
    O_CYCLES, O_COMMITTED_INSTRUCTIONS, O_COMMITTED_SLOTS,
    O_COMMITTED_HANDLES, O_FETCHED_SLOTS, O_FETCH_STALL_CYCLES,
    O_RENAME_STALL_CYCLES, O_ISSUE_SLOTS_USED, O_BRANCH_LOOKUPS,
    O_BRANCH_MISPREDICTIONS, O_ICACHE_MISSES, O_DCACHE_ACCESSES,
    O_DCACHE_MISSES, O_LOADS_EXECUTED, O_STORES_EXECUTED,
    O_ORDERING_VIOLATIONS, O_MINIGRAPH_REPLAYS, O_SLIDING_WINDOW_CONFLICTS,
    O_STALL_ROB_FULL, O_STALL_IQ_FULL, O_STALL_LSQ_FULL,
    O_STALL_NO_PHYSICAL_REGISTER, O_ROB_OCCUPANCY_SUM, O_IQ_OCCUPANCY_SUM,
    O_REGISTERS_IN_USE_SUM, O_ERROR_SEQ, O_RETIRED_ENTRIES, O_COUNT
};

#define NEVER ((int64_t)-1)
#define FOREVER ((int64_t)1 << 62)

#define TF_CONTROL 0x01
#define TF_TAKEN 0x04
#define TF_LOAD 0x08
#define TF_STORE 0x10
#define TF_HAS_EA 0x20
#define TF_MEMORY (TF_LOAD | TF_STORE)

#define KIND_INT 0
#define KIND_FP 1
#define KIND_LOAD 2
#define KIND_STORE 3
#define KIND_HANDLE 4

/* Handle flag bits (per static instruction). */
#define H_INTEGER_ONLY 0x01
#define H_HAS_LOAD 0x02
#define H_HAS_INTERIOR_LOAD 0x04
#define H_HAS_STORE 0x08
#define H_OUT_IS_LAST 0x10

/* Normalized functional-unit codes (AP.n -> PIPE, BR -> ALU). */
#define U_NONE (-1)
#define U_ALU 0
#define U_PIPE 1
#define U_LOAD 2
#define U_STORE 3

int repro_kernel_abi(void) { return REPRO_KERNEL_ABI; }

/* -- arena ------------------------------------------------------------------ */

typedef struct {
    char *base;
    size_t used;
} arena_t;

static void *take(arena_t *arena, size_t bytes) {
    void *ptr = arena->base + arena->used;
    arena->used += (bytes + 15) & ~(size_t)15;
    return ptr;
}

static size_t reserve(size_t bytes) { return (bytes + 15) & ~(size_t)15; }

/* -- timing wheel of FIFO lists keyed by cycle ------------------------------ */

typedef struct {
    int32_t *head;
    int32_t *tail;
    uint64_t *bits;
    int32_t *next;     /* per-sequence link, owned by the caller */
    int64_t mask;
    int64_t words;
    int64_t nonempty;
} wheel_t;

static void wheel_insert(wheel_t *w, int64_t key, int32_t seq) {
    int64_t slot = key & w->mask;
    w->next[seq] = -1;
    if (w->head[slot] < 0) {
        w->head[slot] = seq;
        w->tail[slot] = seq;
        w->bits[slot >> 6] |= (uint64_t)1 << (slot & 63);
        w->nonempty++;
    } else {
        w->next[w->tail[slot]] = seq;
        w->tail[slot] = seq;
    }
}

static int wheel_has(const wheel_t *w, int64_t key) {
    return w->head[key & w->mask] >= 0;
}

/* Detach the list at `key`; returns its head (-1 when empty). */
static int32_t wheel_pop(wheel_t *w, int64_t key) {
    int64_t slot = key & w->mask;
    int32_t head = w->head[slot];
    if (head >= 0) {
        w->head[slot] = -1;
        w->bits[slot >> 6] &= ~((uint64_t)1 << (slot & 63));
        w->nonempty--;
    }
    return head;
}

/* Smallest key >= from with a nonempty list (requires nonempty > 0 and
 * every key in [from, from + size)). */
static int64_t wheel_min(const wheel_t *w, int64_t from) {
    int64_t pos = from & w->mask;
    uint64_t bits = w->bits[pos >> 6] >> (pos & 63);
    if (bits)
        return from + __builtin_ctzll(bits);
    int64_t distance = 64 - (pos & 63);
    int64_t word = (pos >> 6) + 1;
    for (int64_t k = 0; k < w->words; k++, word++, distance += 64) {
        word &= w->words - 1;
        if (w->bits[word])
            return from + distance + __builtin_ctzll(w->bits[word]);
    }
    return from; /* unreachable while nonempty > 0 */
}

/* -- binary min-heaps ------------------------------------------------------- */

static void heap32_push(int32_t *heap, int64_t *n, int32_t value) {
    int64_t i = (*n)++;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (heap[parent] <= value)
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = value;
}

static int32_t heap32_pop(int32_t *heap, int64_t *n) {
    int32_t top = heap[0];
    int32_t last = heap[--(*n)];
    int64_t size = *n, i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= size)
            break;
        if (child + 1 < size && heap[child + 1] < heap[child])
            child++;
        if (heap[child] >= last)
            break;
        heap[i] = heap[child];
        i = child;
    }
    if (size > 0)
        heap[i] = last;
    return top;
}

static void heap64_push(int64_t *heap, int64_t *n, int64_t value) {
    int64_t i = (*n)++;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (heap[parent] <= value)
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = value;
}

static void heap64_pop(int64_t *heap, int64_t *n) {
    int64_t last = heap[--(*n)];
    int64_t size = *n, i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= size)
            break;
        if (child + 1 < size && heap[child + 1] < heap[child])
            child++;
        if (heap[child] >= last)
            break;
        heap[i] = heap[child];
        i = child;
    }
    if (size > 0)
        heap[i] = last;
}

/* -- LRU tag store (MRU first, like the Python lists) ----------------------- */

static int cache_access(uint64_t *tags, int32_t *counts, int64_t assoc,
                        uint64_t set, uint64_t tag) {
    uint64_t *entries = tags + set * (uint64_t)assoc;
    int32_t count = counts[set];
    for (int32_t i = 0; i < count; i++) {
        if (entries[i] == tag) {
            if (i) {
                memmove(entries + 1, entries, (size_t)i * sizeof(uint64_t));
                entries[0] = tag;
            }
            return 1;
        }
    }
    int32_t kept = count < assoc ? count : (int32_t)assoc - 1;
    memmove(entries + 1, entries, (size_t)kept * sizeof(uint64_t));
    entries[0] = tag;
    counts[set] = kept + 1;
    return 0;
}

static int64_t next_pow2(int64_t value, int64_t floor) {
    int64_t size = floor;
    while (size < value)
        size <<= 1;
    return size;
}

/* -- reservation ring ------------------------------------------------------- */

static int32_t reserved_at(const int64_t *tag, const int32_t *count,
                           int64_t mask, int64_t key, int unit) {
    int64_t slot = key & mask;
    return tag[slot] == key ? count[slot * 4 + unit] : 0;
}

static void reserve_at(int64_t *tag, int32_t *count, int64_t mask,
                       int64_t key, int unit) {
    int64_t slot = key & mask;
    if (tag[slot] != key) {
        tag[slot] = key;
        memset(count + slot * 4, 0, 4 * sizeof(int32_t));
    }
    count[slot * 4 + unit]++;
}

/* Sequential load-vs-older-store ordering check shared by loads and
 * load-bearing handles (store-sets training on a violation). */
static void check_ordering(int32_t seq, uint64_t address,
                           const int32_t *lsq_q, int64_t lsq_head,
                           int64_t lsq_tail, const uint8_t *flags_col,
                           const uint8_t *lsq_completed,
                           const uint8_t *lsq_issued, const uint64_t *ea_col,
                           const uint64_t *pc_col, int64_t *ssit,
                           int64_t store_set_entries, int64_t *next_set_id,
                           int64_t *ordering_violations, int64_t cycle,
                           int64_t ordering_penalty,
                           int64_t *fetch_stalled_until) {
    for (int64_t i = lsq_head; i < lsq_tail; i++) {
        int32_t other = lsq_q[i];
        if (other >= seq)
            break;
        uint8_t other_flags = flags_col[other];
        if (!(other_flags & TF_STORE) || lsq_completed[other])
            continue;
        int has_address = (other_flags & TF_HAS_EA) != 0;
        if (has_address && lsq_issued[other])
            continue;
        if (has_address && ea_col[other] == address) {
            (*ordering_violations)++;
            uint64_t load_index = (pc_col[seq] >> 2) % (uint64_t)store_set_entries;
            uint64_t store_index = (pc_col[other] >> 2) % (uint64_t)store_set_entries;
            int64_t load_set = ssit[load_index];
            int64_t store_set = ssit[store_index];
            if (load_set < 0 && store_set < 0) {
                ssit[load_index] = *next_set_id;
                ssit[store_index] = *next_set_id;
                (*next_set_id)++;
            } else if (load_set < 0) {
                ssit[load_index] = store_set;
            } else if (store_set < 0) {
                ssit[store_index] = load_set;
            } else {
                int64_t winner = load_set < store_set ? load_set : store_set;
                ssit[load_index] = winner;
                ssit[store_index] = winner;
            }
            int64_t resume = cycle + ordering_penalty;
            if (resume > *fetch_stalled_until)
                *fetch_stalled_until = resume;
            break;
        }
    }
}

int repro_run_lane(const void *const *cols, const int64_t *params,
                   int64_t *out) {
    /* -- shared trace columns (read in place) ------------------------------ */
    const uint64_t *pc_col = cols[C_PC];
    const uint64_t *next_pc_col = cols[C_NEXT_PC];
    const uint64_t *ea_col = cols[C_EA];
    const uint64_t *addr_col = cols[C_ADDR];
    const uint32_t *index_col = cols[C_INDEX];
    const uint16_t *size_col = cols[C_SIZE];
    const uint8_t *flags_col = cols[C_FLAGS];
    const int8_t *kind_col = cols[C_KIND];
    const int32_t *latency_col = cols[C_LATENCY];
    const int32_t *src0_col = cols[C_SRC0];
    const int32_t *src1_col = cols[C_SRC1];
    const int32_t *dest_col = cols[C_DEST];
    const uint8_t *needs_dest_col = cols[C_NEEDS_DEST];
    const uint8_t *is_cond_col = cols[C_IS_COND];
    const uint8_t *is_handle_col = cols[C_IS_HANDLE];
    const uint8_t *h_flags = cols[C_H_FLAGS];
    const int32_t *h_exec = cols[C_H_EXEC];
    const int32_t *h_header_lat = cols[C_H_HEADER_LAT];
    const int8_t *h_fu0 = cols[C_H_FU0];
    const int32_t *h_bmp_off = cols[C_H_BMP_OFF];
    const int32_t *h_bmp_len = cols[C_H_BMP_LEN];
    const int8_t *bmp_units = cols[C_BMP_UNITS];

    /* -- hoisted config scalars -------------------------------------------- */
    const int64_t fetch_width = params[P_FETCH_WIDTH];
    const int64_t rename_width = params[P_RENAME_WIDTH];
    const int64_t issue_width = params[P_ISSUE_WIDTH];
    const int64_t retire_width = params[P_RETIRE_WIDTH];
    const int64_t front_end_depth = params[P_FRONT_END_DEPTH];
    const int64_t fetch_buffer_limit = fetch_width * front_end_depth;
    const int64_t rob_size = params[P_ROB_SIZE];
    const int64_t iq_size = params[P_IQ_SIZE];
    const int64_t lsq_size = params[P_LSQ_SIZE];
    const int64_t register_read_latency = params[P_REGISTER_READ_LATENCY];
    const int64_t scheduler_latency = params[P_SCHEDULER_LATENCY];
    const int64_t physical_registers = params[P_PHYSICAL_REGISTERS];
    const int64_t arch_registers = params[P_ARCH_REGISTERS];
    const int64_t plain_alu_units = params[P_PLAIN_ALU_UNITS];
    const int64_t alu_pipelines = params[P_ALU_PIPELINES];
    const int64_t fp_units = params[P_FP_UNITS];
    const int64_t load_ports = params[P_LOAD_PORTS];
    const int64_t store_ports = params[P_STORE_PORTS];
    const int64_t max_memory_handles = params[P_MAX_MEMORY_HANDLES];
    const int64_t sliding_window = params[P_SLIDING_WINDOW];
    const int64_t redirect_penalty = params[P_REDIRECT_PENALTY];
    const int64_t ordering_penalty = params[P_ORDERING_PENALTY];
    const int64_t replay_penalty = params[P_REPLAY_PENALTY];
    const int64_t predictor_entries = params[P_PREDICTOR_ENTRIES];
    const int64_t btb_assoc = params[P_BTB_ASSOC];
    const int64_t btb_sets = params[P_BTB_ENTRIES] / btb_assoc;
    const int64_t store_set_entries = params[P_STORE_SET_ENTRIES];
    const uint64_t i_line_bytes = (uint64_t)params[P_I_LINE];
    const uint64_t i_num_sets = (uint64_t)params[P_I_SETS];
    const int64_t i_assoc = params[P_I_ASSOC];
    const int64_t icache_hit = params[P_I_HIT];
    const uint64_t d_line_bytes = (uint64_t)params[P_D_LINE];
    const uint64_t d_num_sets = (uint64_t)params[P_D_SETS];
    const int64_t d_assoc = params[P_D_ASSOC];
    const int64_t dcache_hit = params[P_D_HIT];
    const uint64_t l2_line_bytes = (uint64_t)params[P_L2_LINE];
    const uint64_t l2_num_sets = (uint64_t)params[P_L2_SETS];
    const int64_t l2_assoc = params[P_L2_ASSOC];
    const int64_t l2_hit = params[P_L2_HIT];
    const int64_t memory_latency = params[P_MEMORY_LATENCY];
    const int64_t max_cycles = params[P_MAX_CYCLES];
    const int64_t total = params[P_TOTAL];
    const int64_t static_count = params[P_STATIC_COUNT];
    const int64_t max_register = params[P_MAX_REGISTER];
    const int64_t pipeline_future_cap = alu_pipelines > 1 ? alu_pipelines : 1;
    int64_t alu_future_cap = plain_alu_units + alu_pipelines;
    if (alu_future_cap < 1)
        alu_future_cap = 1;
    const uint64_t pred_mask = (uint64_t)predictor_entries - 1;
    const uint64_t history_mask = ((uint64_t)1 << 12) - 1;

    memset(out, 0, O_COUNT * sizeof(int64_t));

    /* -- event horizons: bound every bucket/reservation key offset -------- */
    int64_t max_latency = 1, max_exec = 0, max_header = 0, max_bmp = 0;
    for (int64_t i = 0; i < total; i++)
        if (latency_col[i] > max_latency)
            max_latency = latency_col[i];
    for (int64_t i = 0; i < static_count; i++) {
        if (h_exec[i] > max_exec)
            max_exec = h_exec[i];
        if (h_header_lat[i] > max_header)
            max_header = h_header_lat[i];
        if (h_bmp_len[i] > max_bmp)
            max_bmp = h_bmp_len[i];
    }
    int64_t horizon = register_read_latency + scheduler_latency + max_latency
        + dcache_hit + l2_hit + memory_latency + replay_penalty
        + 2 * max_exec + max_header + 4;
    const int64_t wheel_size = next_pow2(horizon, 64);
    const int64_t ring_size = next_pow2(max_bmp + 2, 4);
    int64_t register_slots = arch_registers > max_register + 1
        ? arch_registers : max_register + 1;
    int64_t phys_slots = physical_registers > arch_registers
        ? physical_registers : arch_registers;
    int64_t free_capacity = next_pow2(phys_slots + 1, 16);
    const int64_t n = total > 0 ? total : 1;

    /* -- one arena for every per-lane structure ----------------------------- */
    size_t bytes = 0;
    bytes += reserve(n * sizeof(int64_t)) * 3;       /* complete, fetch, wake */
    bytes += reserve(n * sizeof(int32_t)) * 8;       /* pending, dest, prev,
                                                        comp/wake next, ready,
                                                        deferred, lsq */
    bytes += reserve(2 * n * sizeof(int32_t));       /* waiter links */
    bytes += reserve(n * sizeof(int64_t));           /* busy heap */
    bytes += reserve(n) * 4;                         /* pred_taken, lsq flags */
    bytes += reserve((n + 1) * sizeof(int64_t));     /* lfst */
    bytes += reserve(store_set_entries * sizeof(int64_t));
    bytes += reserve(register_slots * sizeof(int32_t));
    bytes += reserve(phys_slots * sizeof(int64_t));
    bytes += reserve(phys_slots * sizeof(int32_t)) * 2;
    bytes += reserve(free_capacity * sizeof(int32_t));
    bytes += reserve(predictor_entries) * 3;
    bytes += reserve(params[P_BTB_ENTRIES] * sizeof(uint64_t)) * 2;
    bytes += reserve(btb_sets * sizeof(int32_t));
    bytes += reserve(i_num_sets * i_assoc * sizeof(uint64_t));
    bytes += reserve(i_num_sets * sizeof(int32_t));
    bytes += reserve(d_num_sets * d_assoc * sizeof(uint64_t));
    bytes += reserve(d_num_sets * sizeof(int32_t));
    bytes += reserve(l2_num_sets * l2_assoc * sizeof(uint64_t));
    bytes += reserve(l2_num_sets * sizeof(int32_t));
    bytes += (reserve(wheel_size * sizeof(int32_t)) * 2
              + reserve(wheel_size / 64 * sizeof(uint64_t))) * 2;
    bytes += reserve(ring_size * sizeof(int64_t));
    bytes += reserve(ring_size * 4 * sizeof(int32_t));

    arena_t arena = {calloc(1, bytes), 0};
    if (!arena.base)
        return REPRO_NOMEM;

    int64_t *complete_cycle = take(&arena, n * sizeof(int64_t));
    int64_t *fetch_cycle_arr = take(&arena, n * sizeof(int64_t));
    int64_t *wake_arr = take(&arena, n * sizeof(int64_t));
    int32_t *pending_arr = take(&arena, n * sizeof(int32_t));
    int32_t *dest_phys = take(&arena, n * sizeof(int32_t));
    int32_t *prev_phys = take(&arena, n * sizeof(int32_t));
    int32_t *complete_next = take(&arena, n * sizeof(int32_t));
    int32_t *wake_next = take(&arena, n * sizeof(int32_t));
    int32_t *ready_heap = take(&arena, n * sizeof(int32_t));
    int32_t *deferred = take(&arena, n * sizeof(int32_t));
    int32_t *lsq_q = take(&arena, n * sizeof(int32_t));
    int32_t *waiter_next = take(&arena, 2 * n * sizeof(int32_t));
    int64_t *busy_heap = take(&arena, n * sizeof(int64_t));
    uint8_t *pred_taken = take(&arena, n);
    uint8_t *lsq_present = take(&arena, n);
    uint8_t *lsq_issued = take(&arena, n);
    uint8_t *lsq_completed = take(&arena, n);
    int64_t *lfst = take(&arena, (n + 1) * sizeof(int64_t));
    int64_t *ssit = take(&arena, store_set_entries * sizeof(int64_t));
    int32_t *rename_map = take(&arena, register_slots * sizeof(int32_t));
    int64_t *ready_cycle = take(&arena, phys_slots * sizeof(int64_t));
    int32_t *waiter_head = take(&arena, phys_slots * sizeof(int32_t));
    int32_t *waiter_tail = take(&arena, phys_slots * sizeof(int32_t));
    int32_t *free_ring = take(&arena, free_capacity * sizeof(int32_t));
    uint8_t *bimodal = take(&arena, predictor_entries);
    uint8_t *gshare = take(&arena, predictor_entries);
    uint8_t *chooser = take(&arena, predictor_entries);
    uint64_t *btb_pc = take(&arena, params[P_BTB_ENTRIES] * sizeof(uint64_t));
    uint64_t *btb_target = take(&arena, params[P_BTB_ENTRIES] * sizeof(uint64_t));
    int32_t *btb_count = take(&arena, btb_sets * sizeof(int32_t));
    uint64_t *i_tags = take(&arena, i_num_sets * i_assoc * sizeof(uint64_t));
    int32_t *i_counts = take(&arena, i_num_sets * sizeof(int32_t));
    uint64_t *d_tags = take(&arena, d_num_sets * d_assoc * sizeof(uint64_t));
    int32_t *d_counts = take(&arena, d_num_sets * sizeof(int32_t));
    uint64_t *l2_tags = take(&arena, l2_num_sets * l2_assoc * sizeof(uint64_t));
    int32_t *l2_counts = take(&arena, l2_num_sets * sizeof(int32_t));
    wheel_t wake_wheel = {
        take(&arena, wheel_size * sizeof(int32_t)),
        take(&arena, wheel_size * sizeof(int32_t)),
        take(&arena, wheel_size / 64 * sizeof(uint64_t)),
        wake_next, wheel_size - 1, wheel_size / 64, 0};
    wheel_t complete_wheel = {
        take(&arena, wheel_size * sizeof(int32_t)),
        take(&arena, wheel_size * sizeof(int32_t)),
        take(&arena, wheel_size / 64 * sizeof(uint64_t)),
        complete_next, wheel_size - 1, wheel_size / 64, 0};
    int64_t *res_tag = take(&arena, ring_size * sizeof(int64_t));
    int32_t *res_count = take(&arena, ring_size * 4 * sizeof(int32_t));
    const int64_t res_mask = ring_size - 1;

    for (int64_t i = 0; i < n; i++) {
        complete_cycle[i] = NEVER;
        dest_phys[i] = -1;
        prev_phys[i] = -1;
    }
    for (int64_t i = 0; i <= n; i++)
        lfst[i] = -1;
    for (int64_t i = 0; i < store_set_entries; i++)
        ssit[i] = -1;
    for (int64_t i = 0; i < register_slots; i++)
        rename_map[i] = i < arch_registers ? (int32_t)i : -1;
    for (int64_t i = 0; i < phys_slots; i++)
        waiter_head[i] = -1;
    for (int64_t i = 0; i < wheel_size; i++) {
        wake_wheel.head[i] = -1;
        complete_wheel.head[i] = -1;
    }
    for (int64_t i = 0; i < ring_size; i++)
        res_tag[i] = -1;
    memset(bimodal, 2, predictor_entries);
    memset(gshare, 2, predictor_entries);
    memset(chooser, 2, predictor_entries);

    const int64_t free_mask = free_capacity - 1;
    int64_t free_head = 0, free_n = 0;
    for (int64_t reg = arch_registers; reg < physical_registers; reg++)
        free_ring[(free_head + free_n++) & free_mask] = (int32_t)reg;

    /* -- dynamic state ------------------------------------------------------ */
    uint64_t history = 0;
    int64_t mispredictions = 0;
    int64_t icache_misses = 0, dcache_accesses = 0, dcache_misses = 0;
    int64_t next_set_id = 0;
    int64_t heap_n = 0, busy_n = 0;
    int64_t lsq_head = 0, lsq_tail = 0;
    int64_t iq_count = 0;
    int64_t retire_ptr = 0, rename_ptr = 0, fetch_index = 0;
    int64_t fetch_stalled_until = 0;
    int64_t fetch_blocked_on = -1;

    int64_t fetched_slots = 0, fetch_stall_cycles = 0;
    int64_t rename_stall_cycles = 0, issue_slots_used = 0;
    int64_t branch_lookups = 0, loads_executed = 0, stores_executed = 0;
    int64_t ordering_violations = 0, minigraph_replays = 0;
    int64_t sliding_window_conflicts = 0;
    int64_t stall_rob_full = 0, stall_iq_full = 0, stall_lsq_full = 0;
    int64_t stall_no_physical_register = 0;
    int64_t rob_occupancy_sum = 0, iq_occupancy_sum = 0;
    int64_t registers_in_use_sum = 0;
    int64_t committed_instructions = 0, committed_slots = 0;
    int64_t committed_handles = 0;

    int64_t retired_entries = 0;
    int64_t cycle = 0;
    const int64_t watchdog_limit = max_cycles + 1;
    int status = REPRO_OK;

#define POP_STALE_BUSY()                                                     \
    while (busy_n && busy_heap[0] <= cycle)                                  \
        heap64_pop(busy_heap, &busy_n)
#define SCHEDULE(wheel, key, seq)                                            \
    do {                                                                     \
        int64_t offset_ = (key) - cycle;                                     \
        if (offset_ < 1 || offset_ >= wheel_size) {                          \
            status = REPRO_UNSUPPORTED;                                      \
            goto done;                                                       \
        }                                                                    \
        wheel_insert(&(wheel), (key), (seq));                                \
    } while (0)

    while (retired_entries < total) {
        if (cycle > max_cycles) {
            status = REPRO_WATCHDOG;
            break;
        }
        const int64_t rob_len = rename_ptr - retire_ptr;
        const int64_t fe_len = fetch_index - rename_ptr;

        /* ---- idle-span jump ---------------------------------------------- */
        if (!heap_n && !wheel_has(&wake_wheel, cycle)
                && !wheel_has(&complete_wheel, cycle)) {
            int64_t head_complete = rob_len ? complete_cycle[retire_ptr] : NEVER;
            if (head_complete == NEVER || head_complete > cycle) {
                int fetch_called = 0, fetch_stalls = 0, fetch_progress = 0;
                int blocked = fetch_blocked_on >= 0;
                int stalled = cycle < fetch_stalled_until;
                if (fetch_index < total || blocked || stalled) {
                    fetch_called = 1;
                    if (blocked || stalled)
                        fetch_stalls = 1;
                    else if (fetch_index >= total)
                        fetch_stalls = 0;
                    else if (fe_len >= fetch_buffer_limit)
                        fetch_stalls = 1;
                    else
                        fetch_progress = 1;
                }
                if (!fetch_progress) {
                    int rename_counter = 0, rename_progress = 0;
                    if (fe_len) {
                        int64_t head = rename_ptr;
                        POP_STALE_BUSY();
                        if (fetch_cycle_arr[head] > cycle - front_end_depth)
                            rename_counter = 1;
                        else if (rob_len >= rob_size)
                            rename_counter = 2;
                        else if (iq_count + busy_n >= iq_size)
                            rename_counter = 3;
                        else if ((flags_col[head] & TF_MEMORY)
                                 && lsq_tail - lsq_head >= lsq_size)
                            rename_counter = 4;
                        else if (needs_dest_col[head] && !free_n)
                            rename_counter = 5;
                        else
                            rename_progress = 1;
                    }
                    if (!rename_progress) {
                        int64_t target = 0;
                        int have = 0;
#define CANDIDATE(value)                                                     \
    do {                                                                     \
        int64_t value_ = (value);                                            \
        if (!have || value_ < target)                                        \
            target = value_;                                                 \
        have = 1;                                                            \
    } while (0)
                        if (rob_len && head_complete != NEVER)
                            CANDIDATE(head_complete);
                        if (wake_wheel.nonempty)
                            CANDIDATE(wheel_min(&wake_wheel, cycle));
                        if (complete_wheel.nonempty)
                            CANDIDATE(wheel_min(&complete_wheel, cycle));
                        if (busy_n)
                            CANDIDATE(busy_heap[0]);
                        if (fetch_stalled_until > cycle)
                            CANDIDATE(fetch_stalled_until);
                        if (fe_len) {
                            int64_t eligible = fetch_cycle_arr[rename_ptr]
                                + front_end_depth;
                            if (eligible > cycle)
                                CANDIDATE(eligible);
                        }
#undef CANDIDATE
                        if (!have)
                            target = watchdog_limit;
                        if (target <= cycle)
                            target = cycle + 1;
                        else if (target > watchdog_limit)
                            target = watchdog_limit;
                        int64_t span = target - cycle;
                        rob_occupancy_sum += rob_len * span;
                        POP_STALE_BUSY();
                        iq_occupancy_sum += (iq_count + busy_n) * span;
                        registers_in_use_sum +=
                            (physical_registers - free_n) * span;
                        if (fetch_called && fetch_stalls)
                            fetch_stall_cycles += span;
                        if (fe_len) {
                            if (rename_counter == 2)
                                stall_rob_full += span;
                            else if (rename_counter == 3)
                                stall_iq_full += span;
                            else if (rename_counter == 4)
                                stall_lsq_full += span;
                            else if (rename_counter == 5)
                                stall_no_physical_register += span;
                            rename_stall_cycles += span;
                        }
                        cycle = target;
                        continue;
                    }
                }
            }
        }

        /* ---- retire ------------------------------------------------------ */
        if (rob_len) {
            int64_t head_complete = complete_cycle[retire_ptr];
            if (head_complete != NEVER && head_complete <= cycle) {
                int64_t retired = 0;
                while (retire_ptr < rename_ptr && retired < retire_width) {
                    int64_t seq = retire_ptr;
                    head_complete = complete_cycle[seq];
                    if (head_complete == NEVER || head_complete > cycle)
                        break;
                    retire_ptr++;
                    int32_t previous = prev_phys[seq];
                    if (previous >= 0)
                        free_ring[(free_head + free_n++) & free_mask] = previous;
                    if ((flags_col[seq] & TF_MEMORY) && lsq_tail > lsq_head
                            && lsq_q[lsq_head] == seq) {
                        lsq_head++;
                        lsq_present[seq] = 0;
                    }
                    committed_instructions += size_col[seq];
                    committed_slots++;
                    if (is_handle_col[seq])
                        committed_handles++;
                    retired++;
                }
                retired_entries += retired;
            }
        }

        /* ---- complete ---------------------------------------------------- */
        for (int32_t seq = wheel_pop(&complete_wheel, cycle); seq >= 0;
             seq = complete_next[seq]) {
            uint8_t flags = flags_col[seq];
            if (flags & TF_CONTROL) {
                int taken = (flags & TF_TAKEN) != 0;
                uint64_t pc = pc_col[seq];
                uint64_t shifted = pc >> 2;
                if (is_cond_col[seq]) {
                    uint64_t base = shifted & pred_mask;
                    uint64_t hashed = (shifted ^ history) & pred_mask;
                    int bimodal_counter = bimodal[base];
                    int gshare_counter = gshare[hashed];
                    int bimodal_correct = (bimodal_counter >= 2) == taken;
                    if (bimodal_correct != ((gshare_counter >= 2) == taken)) {
                        int counter = chooser[base];
                        if (bimodal_correct) {
                            if (counter > 0)
                                chooser[base] = (uint8_t)(counter - 1);
                        } else if (counter < 3) {
                            chooser[base] = (uint8_t)(counter + 1);
                        }
                    }
                    if (taken) {
                        if (bimodal_counter < 3)
                            bimodal[base] = (uint8_t)(bimodal_counter + 1);
                        if (gshare_counter < 3)
                            gshare[hashed] = (uint8_t)(gshare_counter + 1);
                        history = ((history << 1) | 1) & history_mask;
                    } else {
                        if (bimodal_counter > 0)
                            bimodal[base] = (uint8_t)(bimodal_counter - 1);
                        if (gshare_counter > 0)
                            gshare[hashed] = (uint8_t)(gshare_counter - 1);
                        history = (history << 1) & history_mask;
                    }
                    if ((pred_taken[seq] != 0) != taken)
                        mispredictions++;
                }
                if (taken) {
                    /* BTB train: move/insert (pc, target) to MRU. */
                    uint64_t set = shifted % (uint64_t)btb_sets;
                    uint64_t *pcs = btb_pc + set * (uint64_t)btb_assoc;
                    uint64_t *targets = btb_target + set * (uint64_t)btb_assoc;
                    int32_t count = btb_count[set];
                    for (int32_t i = 0; i < count; i++) {
                        if (pcs[i] == pc) {
                            memmove(pcs + i, pcs + i + 1,
                                    (size_t)(count - i - 1) * sizeof(uint64_t));
                            memmove(targets + i, targets + i + 1,
                                    (size_t)(count - i - 1) * sizeof(uint64_t));
                            count--;
                            break;
                        }
                    }
                    int32_t kept = count < btb_assoc ? count
                                                     : (int32_t)btb_assoc - 1;
                    memmove(pcs + 1, pcs, (size_t)kept * sizeof(uint64_t));
                    memmove(targets + 1, targets, (size_t)kept * sizeof(uint64_t));
                    pcs[0] = pc;
                    targets[0] = next_pc_col[seq];
                    btb_count[set] = kept + 1;
                }
                if (fetch_blocked_on == seq) {
                    fetch_blocked_on = -1;
                    int64_t resume = cycle + redirect_penalty;
                    if (resume > fetch_stalled_until)
                        fetch_stalled_until = resume;
                }
            }
            if (flags & TF_MEMORY) {
                lsq_completed[seq] = 1;
                if (flags & TF_STORE) {
                    int64_t set_id = ssit[(pc_col[seq] >> 2)
                                          % (uint64_t)store_set_entries];
                    if (set_id >= 0 && lfst[set_id] == seq)
                        lfst[set_id] = -1;
                }
            }
        }

        /* ---- issue ------------------------------------------------------- */
        int32_t woken = wheel_pop(&wake_wheel, cycle);
        if (woken >= 0 || heap_n) {
            int64_t plain_used = 0, pipeline_used = 0, fp_used = 0;
            int64_t load_used = 0, store_used = 0;
            int64_t memory_handles_issued = 0;
            int64_t now_alu = 0, now_pipeline = 0, now_load = 0, now_store = 0;
            if (res_tag[cycle & res_mask] == cycle) {
                const int32_t *now = res_count + (cycle & res_mask) * 4;
                now_alu = now[U_ALU];
                now_pipeline = now[U_PIPE];
                now_load = now[U_LOAD];
                now_store = now[U_STORE];
            }
            for (int32_t seq = woken; seq >= 0; seq = wake_next[seq])
                heap32_push(ready_heap, &heap_n, seq);
            int64_t issued = 0, n_deferred = 0;
            while (heap_n && issued < issue_width) {
                int32_t seq = heap32_pop(ready_heap, &heap_n);
                uint8_t flags = flags_col[seq];
                int64_t latency, output_latency;
                if ((flags & TF_MEMORY) && !(flags & TF_STORE)) {
                    /* Store sets: only older in-flight stores hold a load. */
                    int64_t set_id = ssit[(pc_col[seq] >> 2)
                                          % (uint64_t)store_set_entries];
                    int64_t predicted = set_id < 0 ? -1 : lfst[set_id];
                    if (predicted >= 0 && predicted < seq
                            && lsq_present[predicted]
                            && (flags_col[predicted] & TF_STORE)
                            && !lsq_completed[predicted]) {
                        deferred[n_deferred++] = seq;
                        continue;
                    }
                }
                int kind = kind_col[seq];
                if (kind == KIND_INT) {
                    if (plain_alu_units - plain_used - now_alu > 0)
                        plain_used++;
                    else if (alu_pipelines - pipeline_used - now_pipeline > 0)
                        pipeline_used++;
                    else {
                        deferred[n_deferred++] = seq;
                        continue;
                    }
                    latency = latency_col[seq];
                    output_latency = latency;
                } else if (kind == KIND_LOAD) {
                    if (load_used + now_load >= load_ports) {
                        deferred[n_deferred++] = seq;
                        continue;
                    }
                    load_used++;
                    uint64_t address = ea_col[seq];
                    dcache_accesses++;
                    uint64_t tag = address / d_line_bytes;
                    if (cache_access(d_tags, d_counts, d_assoc,
                                     tag % d_num_sets, tag)) {
                        latency = dcache_hit;
                    } else {
                        dcache_misses++;
                        tag = address / l2_line_bytes;
                        if (cache_access(l2_tags, l2_counts, l2_assoc,
                                         tag % l2_num_sets, tag))
                            latency = dcache_hit + l2_hit;
                        else
                            latency = dcache_hit + l2_hit + memory_latency;
                    }
                    loads_executed++;
                    if (flags & TF_HAS_EA)
                        check_ordering(seq, address, lsq_q, lsq_head, lsq_tail,
                                       flags_col, lsq_completed, lsq_issued,
                                       ea_col, pc_col, ssit, store_set_entries,
                                       &next_set_id, &ordering_violations,
                                       cycle, ordering_penalty,
                                       &fetch_stalled_until);
                    lsq_issued[seq] = 1;
                    output_latency = latency;
                } else if (kind == KIND_STORE) {
                    if (store_used + now_store >= store_ports) {
                        deferred[n_deferred++] = seq;
                        continue;
                    }
                    store_used++;
                    stores_executed++;
                    lsq_issued[seq] = 1;
                    latency = 1;
                    output_latency = 1;
                } else if (kind == KIND_FP) {
                    if (fp_used >= fp_units) {
                        deferred[n_deferred++] = seq;
                        continue;
                    }
                    fp_used++;
                    latency = latency_col[seq];
                    output_latency = latency;
                } else if (kind == KIND_HANDLE) {
                    uint32_t op = index_col[seq];
                    uint8_t hf = h_flags[op];
                    const int8_t *bmp = bmp_units + h_bmp_off[op];
                    const int32_t bmp_len = h_bmp_len[op];
                    if ((hf & H_INTEGER_ONLY) && alu_pipelines > 0) {
                        if (alu_pipelines - pipeline_used - now_pipeline <= 0) {
                            deferred[n_deferred++] = seq;
                            continue;
                        }
                        pipeline_used++;
                    } else {
                        if (!sliding_window && !(hf & H_INTEGER_ONLY)) {
                            status = REPRO_INTMEM_HANDLE;
                            out[O_ERROR_SEQ] = seq;
                            goto done;
                        }
                        /* can_issue_memory_handle: first-cycle port plus the
                         * sliding-window reservation. */
                        int ok = memory_handles_issued < max_memory_handles;
                        const int fu0 = h_fu0[op];
                        if (ok) {
                            if (fu0 == U_LOAD)
                                ok = load_used + now_load < load_ports;
                            else if (fu0 == U_STORE)
                                ok = store_used + now_store < store_ports;
                            else if (fu0 == U_PIPE)
                                ok = alu_pipelines - pipeline_used
                                    - now_pipeline > 0;
                            else
                                ok = plain_alu_units - plain_used - now_alu > 0
                                    || alu_pipelines - pipeline_used
                                    - now_pipeline > 0;
                        }
                        if (ok) {
                            for (int32_t k = 0; k < bmp_len; k++) {
                                int unit = bmp[k];
                                if (unit == U_NONE)
                                    continue;
                                int64_t reserved = reserved_at(
                                    res_tag, res_count, res_mask,
                                    cycle + k + 1, unit);
                                int64_t capacity =
                                    unit == U_LOAD ? load_ports
                                    : unit == U_STORE ? store_ports
                                    : unit == U_PIPE ? pipeline_future_cap
                                    : alu_future_cap;
                                if (reserved >= capacity) {
                                    ok = 0;
                                    break;
                                }
                            }
                        }
                        if (!ok) {
                            /* A reservation conflict consumes the slot. */
                            issued++;
                            sliding_window_conflicts++;
                            deferred[n_deferred++] = seq;
                            continue;
                        }
                        if (fu0 == U_LOAD)
                            load_used++;
                        else if (fu0 == U_STORE)
                            store_used++;
                        else if (fu0 == U_PIPE)
                            pipeline_used++;
                        else if (plain_alu_units - plain_used - now_alu > 0)
                            plain_used++;
                        else
                            pipeline_used++;
                        for (int32_t k = 0; k < bmp_len; k++) {
                            int unit = bmp[k];
                            if (unit != U_NONE)
                                reserve_at(res_tag, res_count, res_mask,
                                           cycle + k + 1, unit);
                        }
                        memory_handles_issued++;
                    }

                    int64_t execution_cycles = h_exec[op];
                    int64_t extra_memory = 0;
                    output_latency = h_header_lat[op];
                    if (hf & H_HAS_LOAD) {
                        uint64_t address = ea_col[seq];
                        int64_t mem_latency;
                        dcache_accesses++;
                        uint64_t tag = address / d_line_bytes;
                        if (cache_access(d_tags, d_counts, d_assoc,
                                         tag % d_num_sets, tag)) {
                            mem_latency = dcache_hit;
                        } else {
                            dcache_misses++;
                            tag = address / l2_line_bytes;
                            if (cache_access(l2_tags, l2_counts, l2_assoc,
                                             tag % l2_num_sets, tag))
                                mem_latency = dcache_hit + l2_hit;
                            else
                                mem_latency = dcache_hit + l2_hit
                                    + memory_latency;
                        }
                        loads_executed++;
                        if (flags & TF_HAS_EA)
                            check_ordering(seq, address, lsq_q, lsq_head,
                                           lsq_tail, flags_col, lsq_completed,
                                           lsq_issued, ea_col, pc_col, ssit,
                                           store_set_entries, &next_set_id,
                                           &ordering_violations, cycle,
                                           ordering_penalty,
                                           &fetch_stalled_until);
                        lsq_issued[seq] = 1;
                        extra_memory = mem_latency - dcache_hit;
                        if (extra_memory < 0)
                            extra_memory = 0;
                        if (extra_memory > 0 && (hf & H_HAS_INTERIOR_LOAD)) {
                            /* Interior miss: the mini-graph replays. */
                            minigraph_replays++;
                            extra_memory += replay_penalty + execution_cycles;
                            output_latency = execution_cycles + extra_memory;
                        } else if (extra_memory > 0 && (hf & H_OUT_IS_LAST)) {
                            output_latency += extra_memory;
                        }
                    } else if (hf & H_HAS_STORE) {
                        stores_executed++;
                        lsq_issued[seq] = 1;
                    }
                    latency = execution_cycles + extra_memory;
                    /* The MGST sequencer frees the scheduler entry only when
                     * the terminal instruction issues. */
                    heap64_push(busy_heap, &busy_n, cycle + execution_cycles);
                } else {
                    status = REPRO_UNISSUABLE;
                    out[O_ERROR_SEQ] = seq;
                    goto done;
                }

                /* -- finish_issue ----------------------------------------- */
                iq_count--;
                int64_t finish = cycle + register_read_latency + latency;
                complete_cycle[seq] = finish;
                SCHEDULE(complete_wheel, finish, seq);
                int32_t dest = dest_phys[seq];
                if (dest >= 0) {
                    int64_t broadcast = cycle + (output_latency > scheduler_latency
                                                 ? output_latency
                                                 : scheduler_latency);
                    ready_cycle[dest] = broadcast;
                    int32_t node = waiter_head[dest];
                    waiter_head[dest] = -1;
                    for (; node >= 0; node = waiter_next[node]) {
                        int32_t consumer = node >> 1;
                        pending_arr[consumer]--;
                        if (wake_arr[consumer] < broadcast)
                            wake_arr[consumer] = broadcast;
                        if (pending_arr[consumer] == 0)
                            SCHEDULE(wake_wheel, wake_arr[consumer], consumer);
                    }
                }
                issued++;
                issue_slots_used++;
            }
            for (int64_t i = 0; i < n_deferred; i++)
                heap32_push(ready_heap, &heap_n, deferred[i]);
        }

        /* ---- rename ------------------------------------------------------ */
        if (fetch_index > rename_ptr) {
            int64_t renamed = 0;
            const int64_t horizon_cycle = cycle - front_end_depth;
            while (fetch_index > rename_ptr && renamed < rename_width) {
                int32_t seq = (int32_t)rename_ptr;
                if (fetch_cycle_arr[seq] > horizon_cycle)
                    break;
                if (rename_ptr - retire_ptr >= rob_size) {
                    stall_rob_full++;
                    break;
                }
                POP_STALE_BUSY();
                if (iq_count + busy_n >= iq_size) {
                    stall_iq_full++;
                    break;
                }
                uint8_t flags = flags_col[seq];
                if ((flags & TF_MEMORY) && lsq_tail - lsq_head >= lsq_size) {
                    stall_lsq_full++;
                    break;
                }
                int needs_destination = needs_dest_col[seq];
                if (needs_destination && !free_n) {
                    stall_no_physical_register++;
                    break;
                }
                rename_ptr++;
                int32_t source0 = src0_col[seq];
                int32_t source1 = src1_col[seq];
                int32_t physical0 = source0 >= 0 ? rename_map[source0] : -1;
                int32_t physical1 = source1 >= 0 ? rename_map[source1] : -1;
                if (needs_destination) {
                    int32_t destination = dest_col[seq];
                    if (destination < 0) {
                        status = REPRO_UNSUPPORTED;
                        goto done;
                    }
                    int32_t physical = free_ring[free_head];
                    free_head = (free_head + 1) & free_mask;
                    free_n--;
                    prev_phys[seq] = rename_map[destination];
                    rename_map[destination] = physical;
                    dest_phys[seq] = physical;
                    ready_cycle[physical] = FOREVER;
                }
                int32_t pending = 0;
                int64_t wake = cycle + 1;
                if (physical0 >= 0) {
                    int64_t broadcast = ready_cycle[physical0];
                    if (broadcast >= FOREVER) {
                        pending = 1;
                        int32_t node = seq * 2;
                        waiter_next[node] = -1;
                        if (waiter_head[physical0] < 0)
                            waiter_head[physical0] = node;
                        else
                            waiter_next[waiter_tail[physical0]] = node;
                        waiter_tail[physical0] = node;
                    } else if (broadcast > wake) {
                        wake = broadcast;
                    }
                }
                if (physical1 >= 0) {
                    int64_t broadcast = ready_cycle[physical1];
                    if (broadcast >= FOREVER) {
                        pending++;
                        int32_t node = seq * 2 + 1;
                        waiter_next[node] = -1;
                        if (waiter_head[physical1] < 0)
                            waiter_head[physical1] = node;
                        else
                            waiter_next[waiter_tail[physical1]] = node;
                        waiter_tail[physical1] = node;
                    } else if (broadcast > wake) {
                        wake = broadcast;
                    }
                }
                if (pending) {
                    pending_arr[seq] = pending;
                    wake_arr[seq] = wake;
                } else {
                    SCHEDULE(wake_wheel, wake, seq);
                }
                iq_count++;
                if (flags & TF_MEMORY) {
                    lsq_present[seq] = 1;
                    lsq_q[lsq_tail++] = seq;
                    if (flags & TF_STORE) {
                        int64_t set_id = ssit[(pc_col[seq] >> 2)
                                              % (uint64_t)store_set_entries];
                        if (set_id >= 0)
                            lfst[set_id] = seq;
                    }
                }
                renamed++;
            }
            if (!renamed)
                rename_stall_cycles++;
        }

        /* ---- fetch ------------------------------------------------------- */
        if (fetch_index < total || fetch_blocked_on >= 0
                || cycle < fetch_stalled_until) {
            if (fetch_blocked_on >= 0 || cycle < fetch_stalled_until) {
                fetch_stall_cycles++;
            } else if (fetch_index < total) {
                if (fetch_index - rename_ptr >= fetch_buffer_limit) {
                    fetch_stall_cycles++;
                } else {
                    int64_t fetched = 0;
                    int have_line = 0;
                    uint64_t current_line = 0;
                    int64_t seq = fetch_index;
                    while (fetched < fetch_width && seq < total) {
                        uint64_t line = addr_col[seq] / i_line_bytes;
                        if (!have_line || line != current_line) {
                            int64_t latency;
                            if (cache_access(i_tags, i_counts, i_assoc,
                                             line % i_num_sets, line)) {
                                latency = icache_hit;
                            } else {
                                icache_misses++;
                                uint64_t tag = addr_col[seq] / l2_line_bytes;
                                if (cache_access(l2_tags, l2_counts, l2_assoc,
                                                 tag % l2_num_sets, tag))
                                    latency = icache_hit + l2_hit;
                                else
                                    latency = icache_hit + l2_hit
                                        + memory_latency;
                            }
                            if (latency > icache_hit) {
                                int64_t resume = cycle + latency;
                                if (resume > fetch_stalled_until)
                                    fetch_stalled_until = resume;
                                if (fetched == 0)
                                    fetch_stall_cycles++;
                                break;
                            }
                            current_line = line;
                            have_line = 1;
                        }
                        fetch_cycle_arr[seq] = cycle;
                        fetched++;
                        fetched_slots++;
                        uint8_t flags = flags_col[seq];
                        seq++;
                        if (flags & TF_CONTROL) {
                            branch_lookups++;
                            int64_t here = seq - 1;
                            uint64_t pc = pc_col[here];
                            uint64_t shifted = pc >> 2;
                            /* BTB lookup (hit moves to MRU), then predict. */
                            uint64_t set = shifted % (uint64_t)btb_sets;
                            uint64_t *pcs = btb_pc + set * (uint64_t)btb_assoc;
                            uint64_t *targets = btb_target
                                + set * (uint64_t)btb_assoc;
                            int32_t count = btb_count[set];
                            int found = 0;
                            uint64_t target = 0;
                            for (int32_t i = 0; i < count; i++) {
                                if (pcs[i] == pc) {
                                    target = targets[i];
                                    if (i) {
                                        memmove(pcs + 1, pcs,
                                                (size_t)i * sizeof(uint64_t));
                                        memmove(targets + 1, targets,
                                                (size_t)i * sizeof(uint64_t));
                                        pcs[0] = pc;
                                        targets[0] = target;
                                    }
                                    found = 1;
                                    break;
                                }
                            }
                            int taken;
                            if (is_cond_col[here])
                                taken = (chooser[shifted & pred_mask] >= 2
                                         ? gshare[(shifted ^ history) & pred_mask]
                                         : bimodal[shifted & pred_mask]) >= 2;
                            else
                                taken = 1;
                            if (taken && !found)
                                taken = 0;
                            pred_taken[here] = (uint8_t)taken;
                            int actual_taken = (flags & TF_TAKEN) != 0;
                            int target_correct = !actual_taken
                                || (found && target == next_pc_col[here]);
                            if (taken != actual_taken || !target_correct) {
                                fetch_blocked_on = here;
                                break;
                            }
                            if (actual_taken)
                                break;
                        }
                    }
                    fetch_index = seq;
                }
            }
        }

        /* ---- per-cycle occupancy accounting ------------------------------ */
        rob_occupancy_sum += rename_ptr - retire_ptr;
        POP_STALE_BUSY();
        iq_occupancy_sum += iq_count + busy_n;
        registers_in_use_sum += physical_registers - free_n;
        cycle++;
    }
#undef POP_STALE_BUSY
#undef SCHEDULE

done:
    out[O_CYCLES] = cycle;
    out[O_COMMITTED_INSTRUCTIONS] = committed_instructions;
    out[O_COMMITTED_SLOTS] = committed_slots;
    out[O_COMMITTED_HANDLES] = committed_handles;
    out[O_FETCHED_SLOTS] = fetched_slots;
    out[O_FETCH_STALL_CYCLES] = fetch_stall_cycles;
    out[O_RENAME_STALL_CYCLES] = rename_stall_cycles;
    out[O_ISSUE_SLOTS_USED] = issue_slots_used;
    out[O_BRANCH_LOOKUPS] = branch_lookups;
    out[O_BRANCH_MISPREDICTIONS] = mispredictions;
    out[O_ICACHE_MISSES] = icache_misses;
    out[O_DCACHE_ACCESSES] = dcache_accesses;
    out[O_DCACHE_MISSES] = dcache_misses;
    out[O_LOADS_EXECUTED] = loads_executed;
    out[O_STORES_EXECUTED] = stores_executed;
    out[O_ORDERING_VIOLATIONS] = ordering_violations;
    out[O_MINIGRAPH_REPLAYS] = minigraph_replays;
    out[O_SLIDING_WINDOW_CONFLICTS] = sliding_window_conflicts;
    out[O_STALL_ROB_FULL] = stall_rob_full;
    out[O_STALL_IQ_FULL] = stall_iq_full;
    out[O_STALL_LSQ_FULL] = stall_lsq_full;
    out[O_STALL_NO_PHYSICAL_REGISTER] = stall_no_physical_register;
    out[O_ROB_OCCUPANCY_SUM] = rob_occupancy_sum;
    out[O_IQ_OCCUPANCY_SUM] = iq_occupancy_sum;
    out[O_REGISTERS_IN_USE_SUM] = registers_in_use_sum;
    out[O_RETIRED_ENTRIES] = retired_entries;
    free(arena.base);
    return status;
}
