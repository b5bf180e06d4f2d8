/* Every per-packet step of the cycle's queue stages (paper §IV.C):
 * stages 1 and 2, the crossbar's request routing; stages 3 and 4, the
 * vault walk with its READ/WRITE execute, the reply build and push and
 * the banks' row read/write (§IV.A); stage 5, response registration
 * and the chain-link response hops.  And the host lane around them
 * (§V.C, §VI.A): ``build_memrequest``, the host's inject burst, the
 * host-link send, the delivery poll and the host's drain.
 *
 * Built on first import by repro/core/_native.py.  One ``bind`` call
 * (from repro/core/clock.py), driven by a table of classes and a table
 * of named constants, resolves the slots the C addresses and installs
 * the functions below as methods of ``Bank``, ``PacketQueue``,
 * ``Tracer``, ``Vault`` and ``CrossbarUnit``; the clock calls the three
 * stage functions, and ``Host`` and ``HMCSim`` the ``host_*`` ones (the
 * host module, which imports the clock, hands them its own classes).
 * The C holds no state of its own: it reads and writes the same
 * ``__slots__`` the Python code does, at the offsets their member
 * descriptors give, the bank arrays through the buffer protocol, and
 * the attributes of the simulator, the hosts, their tag pools and the
 * links by name, so pickles and checkpoints do not change.  Trace events
 * without extras are appended to the tracer's buffer as
 * ``Tracer.emit_fast`` (also C) appends them.
 * What stays in Python is called back: MODE packets, error replies,
 * BWR and the atomics, open-row timing, address maps other than
 * ``AddressMap``, ECC reads/writes, ``CrossbarUnit._reject`` and
 * ``_expire_zombies``, the in-band link gate (``try_transmit``), the
 * route rebuild, ``HMCSim._note_link_failure`` and ``_host_link_dead``,
 * ``Tracer.event`` for the events with extras (MISROUTE, CHAIN_HOP, a
 * remote stall), ``Host._pick_link`` for the RANDOM and LOCALITY
 * policies, the link tokens, and a ``send`` / ``recv_all`` that the
 * simulator's class overrides.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* -- slot access ---------------------------------------------------------- */

#define SLOT(o, off) (*(PyObject **)((char *)(o) + (off)))
#define LEN(a) ((int)(sizeof(a) / sizeof((a)[0])))

#define E(p, n) p##_##n,
#define S(p, n) #n,

#define PACKET(X) X(P, cmd) X(P, cub) X(P, tag) X(P, addr) X(P, payload) \
    X(P, slid) X(P, serial) X(P, injected_at) X(P, hops)                   \
    X(P, ingress_link) X(P, src_cub) X(P, route_stack) X(P, dec_bank)      \
    X(P, cls) X(P, expects_response) X(P, is_special) X(P, num_flits)     \
    X(P, dec_vault) X(P, is_response) X(P, completed_at) X(P, delivered_from) \
    X(P, errstat)
#define QUEUE(X) X(Q, depth) X(Q, _q) X(Q, _stamps) X(Q, high_water) \
    X(Q, total_enqueued) X(Q, total_dequeued) X(Q, _act_set) X(Q, _act_key) X(Q, special_count)
#define VAULT(X) X(V, vault_id) X(V, quad_id) X(V, banks) X(V, rqst)     \
    X(V, rsp) X(V, rd_count) X(V, wr_count) X(V, conflict_count)        \
    X(V, issue_stall_cycles) X(V, rsp_stall_count) X(V, _busy_mask)     \
    X(V, _next_free)
#define BANK(X) X(B, capacity_bytes) X(B, _page_words) X(B, busy_until) \
    X(B, reads) X(B, writes) X(B, conflicts) X(B, column_fetches)       \
    X(B, dram_access_count) X(B, ras) X(B, _pages) X(B, _store)         \
    X(B, _tstore) X(B, _dirty)
#define TRACER(X) X(T, _buf) X(T, emitted) X(T, _limit) X(T, live_mask) \
    X(T, next_serial)
#define XBAR(X) X(C, link_id) X(C, rqst) X(C, rsp) X(C, routed_local) \
    X(C, routed_remote) X(C, stall_events) X(C, latency_events) X(C, misroutes)
#define DEVICE(X) X(D, dev_id) X(D, amap) X(D, links) X(D, xbars)      \
    X(D, vaults) X(D, act_xbar_rqst) X(D, act_xbar_rsp) X(D, act_vault_rqst) \
    X(D, act_vault_rsp)

enum { PACKET(E) P_N };
enum { QUEUE(E) Q_N };
enum { VAULT(E) V_N };
enum { BANK(E) B_N };
enum { TRACER(E) T_N };
enum { XBAR(E) C_N };
enum { DEVICE(E) D_N };
#define PENDING(X) X(R, cmd) X(R, addr) X(R, dev) X(R, link) X(R, sent_cycle)
enum { PENDING(E) R_N };
static const char *const P_names[] = { PACKET(S) };
static const char *const Q_names[] = { QUEUE(S) };
static const char *const V_names[] = { VAULT(S) };
static const char *const B_names[] = { BANK(S) };
static const char *const T_names[] = { TRACER(S) };
static const char *const C_names[] = { XBAR(S) };
static const char *const D_names[] = { DEVICE(S) };
static const char *const R_names[] = { PENDING(S) };
static Py_ssize_t P_off[P_N], Q_off[Q_N], V_off[V_N], B_off[B_N], T_off[T_N];
static Py_ssize_t C_off[C_N], D_off[D_N], R_off[R_N];

/* Every slot of Packet, for copying a reply prototype. */
static Py_ssize_t *packet_all_off;
static Py_ssize_t packet_nslots;

static PyTypeObject *packet_type, *queue_type, *vault_type, *bank_type;
static PyTypeObject *amap_type, *tracer_type, *xbar_type, *device_type;
static PyTypeObject *pending_type;      /* the host's, resolved on first sight */

/* Offset of the ``__slots__`` entry *name* of *tp*. */
static Py_ssize_t
slot_offset(PyTypeObject *tp, const char *name)
{
    PyObject *d = PyObject_GetAttrString((PyObject *)tp, name);
    if (d == NULL)
        return -1;
    Py_ssize_t off = -1;
    if (Py_IS_TYPE(d, &PyMemberDescr_Type)
        && ((PyMemberDescrObject *)d)->d_member->type == T_OBJECT_EX)
        off = ((PyMemberDescrObject *)d)->d_member->offset;
    else
        PyErr_Format(PyExc_TypeError, "%s.%s is not a __slots__ entry",
                     tp->tp_name, name);
    Py_DECREF(d);
    return off;
}

/* 0 if *o* is a *tp* (whose slots the offsets address), else TypeError. */
static int
check_type(PyObject *o, PyTypeObject *tp)
{
    if (tp != NULL && PyObject_TypeCheck(o, tp))
        return 0;
    PyErr_Format(PyExc_TypeError, "expected %s, got %s",
                 tp ? tp->tp_name : "a bound class", Py_TYPE(o)->tp_name);
    return -1;
}

/* Borrowed value of a slot; an unset slot raises AttributeError. */
static PyObject *
get(PyObject *o, Py_ssize_t off)
{
    PyObject *v = SLOT(o, off);
    if (v == NULL)
        PyErr_Format(PyExc_AttributeError, "'%s' object has an unset slot",
                     Py_TYPE(o)->tp_name);
    return v;
}

/* A new reference to the value of a slot. */
static PyObject *
hold(PyObject *o, Py_ssize_t off)
{
    PyObject *v = get(o, off);
    Py_XINCREF(v);
    return v;
}

static int
get_ll(PyObject *o, Py_ssize_t off, long long *out)
{
    PyObject *v = get(o, off);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* Store *v* (a new reference, or NULL after a failed call) in a slot. */
static int
set_new(PyObject *o, Py_ssize_t off, PyObject *v)
{
    if (v == NULL)
        return -1;
    PyObject *old = SLOT(o, off);
    SLOT(o, off) = v;
    Py_XDECREF(old);
    return 0;
}

static int
set_ref(PyObject *o, Py_ssize_t off, PyObject *v)
{
    Py_INCREF(v);
    return set_new(o, off, v);
}

static int
set_ll(PyObject *o, Py_ssize_t off, long long x)
{
    return set_new(o, off, PyLong_FromLongLong(x));
}

static int
add_ll(PyObject *o, Py_ssize_t off, long long d)
{
    long long x;
    return get_ll(o, off, &x) < 0 ? -1 : set_ll(o, off, x + d);
}

/* -- constants handed over by the binds ---------------------------------- */

#define NCMD 64                 /* CMD values are 6-bit */
#define NBANK 64                /* banks per vault: bits of a busy mask */

static long long atom_bytes, fetch_bytes, far_cycle;
static PyObject *np_zeros, *word_dtype, *flag_dtype;    /* page store arrays */
static PyObject *reply_proto[NCMD];     /* per request CMD, from _fast_new */
static long long read_bytes[NCMD];      /* REQUEST_DATA_BYTES */
static long long is_bwr_cmd[NCMD];      /* 1 for BWR and P_BWR */
static PyObject *cls_flow, *cls_read, *cls_write, *cls_posted_write;
static PyObject *cls_atomic, *cls_posted_atomic;
static PyObject *err_address, *err_cmd;
static PyObject *ev_conflict, *ev_stall, *ev_read, *ev_write;
static long long m_conflict, m_stall, m_read, m_write;
static PyObject *minus_one, *busy_true, *busy_false;
/* The crossbar's: MODE classes, errors, gate outcomes and events (the
 * int for a buffered tuple, the member for ``Tracer.event``). */
static PyObject *cls_mode_read, *cls_mode_write, *err_unroutable, *tx_ok, *tx_dead;
static PyObject *ev_rqst_stall, *ev_latency, *ev_rsp_stall, *ev_expired, *ev_registered;
static long long m_rqst_stall, m_latency, m_rsp_stall, m_expired, m_registered, m_chain_hop;
static PyObject *member_rqst_stall, *member_chain_hop, *member_misroute;
/* The host lane's: request prototypes (per CMD, from _fast_new), the
 * posted commands, the errors it raises and the members it compares. */
static PyObject *request_proto[NCMD];
static char posted_cmd[NCMD];
static PyTypeObject *cmd_type;
static PyObject *posted_set, *host_sender, *health_failed, *err_ok, *ev_delivered;
static PyObject *cmd_error_obj;
static PyObject *exc_topology, *exc_stall, *exc_dead;
static long long m_delivered, cmd_error, max_tag, max_adrs, max_cub;

static PyObject *s_append, *s_add, *s_flush, *s_addr;
static PyObject *s_do_mode, *s_error_response, *s_read_modify_write;
static PyObject *s_decode, *s_dram, *s_offset;
static PyObject *s_block_size, *s_bank_of, *s_dram_of, *s_bs, *s_bank_mask;
static PyObject *s_ds, *s_dram_mask, *s_offset_mask, *s_capacity_bytes;
static PyObject *s_access_busy_cycles;
static PyObject *s_popleft, *s_discard, *s_event, *s_reject, *s_expire;
static PyObject *s_try_transmit, *s_note_failure, *s_build_routes, *s_routes;
static PyObject *s_link_faults, *s_link_peers, *s_devices, *s_config;
static PyObject *s_queue_timeout, *s_penalty, *s_num_devs;
static PyObject *s_dropped, *s_tx_packets, *s_tx_flits, *s_rx_packets;
static PyObject *s_rx_flits, *s_vs, *s_vault_mask, *s_vault_of;
static PyObject *s_target_cub, *s_remote, *s_to_dev, *s_to_link;
static PyObject *s_get, *event_kw;      /* Tracer.event's keywords, as passed */
static PyObject *s_sim, *s_tag_pools, *s_policy, *s_host_links, *s_rotor, *s_pick_link;
static PyObject *s_free, *s_bound, *s_allocated, *s_released, *s_sent, *s_last_send;
static PyObject *s_send, *s_recv_all, *s_freed, *s_tokens, *s_check_alive;
static PyObject *s_link_dead, *s_send_stalls;
static PyObject *s_packets_sent, *s_packets_received, *s_clock_value, *s_tracer;
static PyObject *s_host_cub, *s_can_send, *s_consume, *s_restore, *s_outstanding;
static PyObject *s_health, *s_recv_rotor, *s_partitioned, *s_received, *s_errors;
static PyObject *s_latencies, *s_error_stats, *s_sent_cycle, *s_name, *s_pop;
static PyObject *s_hash_x, *s_empty, *send_kw, *zero, *one;  /* HMCSim.send's keywords */

static int
intern_all(void)
{
#define I(var, text) if ((var = PyUnicode_InternFromString(text)) == NULL) return -1;
    I(s_append, "append") I(s_add, "add") I(s_flush, "flush")
    I(s_addr, "addr") I(s_do_mode, "_do_mode")
    I(s_error_response, "_error_response")
    I(s_read_modify_write, "_read_modify_write")
    I(s_decode, "decode")
    I(s_dram, "dram") I(s_offset, "offset") I(s_block_size, "block_size")
    I(s_bank_of, "bank_of") I(s_dram_of, "dram_of") I(s_bs, "_bs")
    I(s_bank_mask, "_bank_mask") I(s_ds, "_ds") I(s_dram_mask, "_dram_mask")
    I(s_offset_mask, "_offset_mask") I(s_capacity_bytes, "capacity_bytes")
    I(s_access_busy_cycles, "access_busy_cycles")
    I(s_popleft, "popleft") I(s_discard, "discard") I(s_event, "event") I(s_get, "get")
    I(s_reject, "_reject") I(s_expire, "_expire_zombies") I(s_routes, "_routes")
    I(s_try_transmit, "try_transmit") I(s_note_failure, "_note_link_failure")
    I(s_build_routes, "_build_routes") I(s_link_faults, "_link_faults")
    I(s_link_peers, "_link_peers") I(s_devices, "devices") I(s_config, "config")
    I(s_queue_timeout, "queue_timeout") I(s_penalty, "nonlocal_penalty_cycles")
    I(s_num_devs, "num_devs")
    I(s_dropped, "dropped_responses") I(s_tx_packets, "tx_packets") I(s_vs, "_vs")
    I(s_tx_flits, "tx_flits") I(s_rx_packets, "rx_packets") I(s_rx_flits, "rx_flits")
    I(s_vault_mask, "_vault_mask") I(s_vault_of, "vault_of") I(s_remote, "remote")
    I(s_target_cub, "target_cub") I(s_to_dev, "to_dev") I(s_to_link, "to_link")
    I(s_sim, "sim") I(s_tag_pools, "tag_pools") I(s_policy, "policy")
    I(s_host_links, "_host_links") I(s_rotor, "_rotor") I(s_pick_link, "_pick_link")
    I(s_free, "_free") I(s_bound, "_bound") I(s_allocated, "allocated_total")
    I(s_released, "released_total") I(s_sent, "sent") I(s_last_send, "last_send")
    I(s_send, "send") I(s_recv_all, "recv_all") I(s_freed, "_freed")
    I(s_tokens, "_tokens") I(s_check_alive, "_check_alive")
    I(s_link_dead, "_host_link_dead") I(s_send_stalls, "send_stalls")
    I(s_packets_sent, "packets_sent") I(s_packets_received, "packets_received")
    I(s_clock_value, "clock_value") I(s_tracer, "tracer") I(s_host_cub, "host_cub")
    I(s_can_send, "can_send") I(s_consume, "consume") I(s_restore, "restore")
    I(s_outstanding, "_outstanding_flits") I(s_health, "health")
    I(s_recv_rotor, "_recv_rotor") I(s_partitioned, "_partitioned")
    I(s_received, "received") I(s_errors, "errors") I(s_latencies, "latencies")
    I(s_error_stats, "error_stats") I(s_sent_cycle, "sent_cycle") I(s_name, "name")
    I(s_pop, "pop") I(s_hash_x, "#x") I(s_empty, "")
#undef I
    event_kw = Py_BuildValue("(ssss)", "dev", "link", "serial", "extra");
    send_kw = Py_BuildValue("(ss)", "dev", "link");
    minus_one = PyLong_FromLong(-1);
    zero = PyLong_FromLong(0);
    one = PyLong_FromLong(1);
    busy_true = Py_BuildValue("(sO)", "busy", Py_True);
    busy_false = Py_BuildValue("(sO)", "busy", Py_False);
    return (minus_one && zero && one && busy_true && busy_false && event_kw && send_kw) ? 0 : -1;
}

static int
attr_ll(PyObject *o, PyObject *name, long long *out)
{
    PyObject *v = PyObject_GetAttr(o, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
call_ll(PyObject *result, long long *out)
{
    if (result == NULL)
        return -1;
    *out = PyLong_AsLongLong(result);
    Py_DECREF(result);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* -- bank rows ------------------------------------------------------------ */

/* A 2-D C-contiguous view of a bank array with *cols* items of *size*. */
static int
view2d(PyObject *array, Py_buffer *view, int flags, Py_ssize_t size,
       Py_ssize_t cols)
{
    if (PyObject_GetBuffer(array, view, flags | PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    if (view->ndim != 2 || view->itemsize != size || view->shape[1] != cols) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_ValueError, "bank store has the wrong layout");
        return -1;
    }
    return 0;
}

/* The bank-relative byte range check: _check raises its message. */
static int
check_range(PyObject *bank, long long rel, long long nbytes)
{
    long long cap;
    if (get_ll(bank, B_off[B_capacity_bytes], &cap) < 0)
        return -1;
    if (rel < 0 || nbytes <= 0 || nbytes > cap || rel > cap - nbytes
        || rel % atom_bytes || nbytes % atom_bytes) {
        PyObject *r = PyObject_CallMethod(bank, "_check", "LL", rel, nbytes);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    return 0;
}

/* The access counters every demand read or write moves. */
static int
count_access(PyObject *bank, int counter, long long nbytes)
{
    if (add_ll(bank, B_off[counter], 1) < 0
        || add_ll(bank, B_off[B_column_fetches],
                  (nbytes + fetch_bytes - 1) / fetch_bytes) < 0
        || add_ll(bank, B_off[B_dram_access_count], 1) < 0)
        return -1;
    return 0;
}

/* The bank's page size in words: even and positive, or ValueError. */
static int
page_words(PyObject *bank, long long *pw)
{
    if (get_ll(bank, B_off[B__page_words], pw) < 0)
        return -1;
    if (*pw <= 0 || *pw % 2) {
        PyErr_Format(PyExc_ValueError, "bank page of %lld words", *pw);
        return -1;
    }
    return 0;
}

/* Row of page *pg* in the store, or -1 when the page was never written. */
static int
page_row(PyObject *pages, long long pg, long long *row)
{
    PyObject *key = PyLong_FromLongLong(pg);
    if (key == NULL)
        return -1;
    PyObject *r = PyDict_GetItemWithError(pages, key);
    Py_DECREF(key);
    if (r == NULL) {
        *row = -1;
        return PyErr_Occurred() ? -1 : 0;
    }
    *row = PyLong_AsLongLong(r);
    return (*row == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* *array* (``_store`` or ``_tstore``) with *rows* rows of *cols* items:
 * zeros, then the first *used* rows of the old array.  A new reference. */
static PyObject *
grown(PyObject *old, PyObject *dtype, Py_ssize_t itemsize, Py_ssize_t rows,
      Py_ssize_t cols, Py_ssize_t used)
{
    PyObject *array = PyObject_CallFunction(np_zeros, "((nn)O)", rows, cols, dtype);
    Py_buffer from, to;
    if (array == NULL || used == 0)
        return array;
    if (view2d(old, &from, 0, itemsize, cols) < 0)
        goto fail;
    if (from.shape[0] < used) {
        PyBuffer_Release(&from);
        PyErr_SetString(PyExc_ValueError, "bank store holds fewer rows than pages");
        goto fail;
    }
    if (view2d(array, &to, PyBUF_WRITABLE, itemsize, cols) < 0) {
        PyBuffer_Release(&from);
        goto fail;
    }
    memcpy(to.buf, from.buf, used * cols * itemsize);
    PyBuffer_Release(&from);
    PyBuffer_Release(&to);
    return array;
fail:
    Py_DECREF(array);
    return NULL;
}

/* Give page *pg* the next row of the store; rows past ``len(_pages)``
 * are always zero.  The store starts as one row on the first write and
 * doubles when full, so a bank holds at most twice the pages it wrote. */
static int
materialize(PyObject *bank, PyObject *pg, long long *row)
{
    PyObject *pages = get(bank, B_off[B__pages]);
    PyObject *store = get(bank, B_off[B__store]);
    PyObject *tstore = get(bank, B_off[B__tstore]);
    long long pw;
    if (pages == NULL || store == NULL || tstore == NULL
        || page_words(bank, &pw) < 0)
        return -1;
    if (!PyDict_Check(pages)) {
        PyErr_SetString(PyExc_TypeError, "bank pages must be a dict");
        return -1;
    }
    Py_ssize_t n = PyDict_GET_SIZE(pages);
    Py_ssize_t rows = store == Py_None ? 0 : PyObject_Size(store);
    if (rows < 0)
        return -1;
    if (n >= rows) {
        rows = n ? 2 * n : 1;
        PyObject *words = grown(store, word_dtype, 8, rows, pw, n);
        PyObject *flags = words ? grown(tstore, flag_dtype, 1, rows, pw / 2, n) : NULL;
        if (flags == NULL) {
            Py_XDECREF(words);
            return -1;
        }
        set_new(bank, B_off[B__store], words);
        set_new(bank, B_off[B__tstore], flags);
    }
    PyObject *value = PyLong_FromSsize_t(n);
    int rc = value == NULL ? -1 : PyDict_SetItem(pages, pg, value);
    Py_XDECREF(value);
    *row = n;
    return rc;
}

static PyObject *
Bank_materialize(PyObject *self, PyObject *pg)
{
    long long row;
    if (materialize(self, pg, &row) < 0)
        return NULL;
    return PyLong_FromLongLong(row);
}

/* Demand read of *nbytes* at bank-relative *rel*: a tuple of 64-bit
 * words for the walk's reply, a list for Bank.read. */
static PyObject *
bank_read(PyObject *bank, long long rel, long long nbytes, int as_tuple)
{
    if (check_range(bank, rel, nbytes) < 0
        || count_access(bank, B_reads, nbytes) < 0)
        return NULL;
    long long atom0 = rel / atom_bytes;
    PyObject *ras = get(bank, B_off[B_ras]);
    if (ras == NULL)
        return NULL;
    if (ras != Py_None) {
        PyObject *words = PyObject_CallMethod(ras, "read_atoms", "LL", atom0,
                                              nbytes / atom_bytes);
        if (words == NULL || !as_tuple)
            return words;
        Py_SETREF(words, PySequence_Tuple(words));
        return words;
    }
    long long pw, nw = nbytes / 8;
    PyObject *pages = get(bank, B_off[B__pages]);
    if (pages == NULL || page_words(bank, &pw) < 0)
        return NULL;
    PyObject *out = as_tuple ? PyTuple_New(nw) : PyList_New(nw);
    if (out == NULL)
        return NULL;
    long long pg = atom0 * 2 / pw, off = atom0 * 2 % pw;
    for (long long i = 0; i < nw; pg++, off = 0) {
        long long row, take = nw - i < pw - off ? nw - i : pw - off;
        if (page_row(pages, pg, &row) < 0)
            goto fail;
        Py_buffer view;
        const unsigned long long *words = NULL;
        if (row >= 0) {
            PyObject *store = get(bank, B_off[B__store]);
            if (store == NULL || view2d(store, &view, 0, 8, pw) < 0)
                goto fail;
            if (row >= view.shape[0]) {
                PyBuffer_Release(&view);
                PyErr_SetString(PyExc_IndexError, "page row outside the store");
                goto fail;
            }
            words = (const unsigned long long *)view.buf + row * pw + off;
        }
        for (long long k = 0; k < take; k++, i++) {
            PyObject *w = PyLong_FromUnsignedLongLong(words ? words[k] : 0);
            if (w == NULL)
                break;
            if (as_tuple)
                PyTuple_SET_ITEM(out, i, w);
            else
                PyList_SET_ITEM(out, i, w);
        }
        if (words != NULL)
            PyBuffer_Release(&view);
        if (PyErr_Occurred())
            goto fail;
    }
    return out;
fail:
    Py_DECREF(out);
    return NULL;
}

/* Demand write of the 64-bit *words* (taken mod 2**64) at *rel*. */
static int
bank_write(PyObject *bank, long long rel, PyObject *words)
{
    PyObject *seq = PySequence_Fast(words, "bank words must be a sequence");
    if (seq == NULL)
        return -1;
    Py_ssize_t nw = PySequence_Fast_GET_SIZE(seq);
    unsigned long long small[16], *vals = small;
    PyObject *masked = NULL;
    int rc = -1;
    if (check_range(bank, rel, (long long)nw * 8) < 0)
        goto done;
    if (nw > 16 && (vals = PyMem_New(unsigned long long, nw)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t k = 0; k < nw; k++) {
        vals[k] = PyLong_AsUnsignedLongLongMask(PySequence_Fast_GET_ITEM(seq, k));
        if (vals[k] == (unsigned long long)-1 && PyErr_Occurred())
            goto done;
    }
    if (count_access(bank, B_writes, (long long)nw * 8) < 0)
        goto done;
    long long pw, atom0 = rel / atom_bytes;
    if (page_words(bank, &pw) < 0)
        goto done;
    long long pg = atom0 * 2 / pw, off = atom0 * 2 % pw;
    for (long long i = 0; i < nw; pg++, off = 0) {
        long long row, take = nw - i < pw - off ? nw - i : pw - off;
        PyObject *pages = get(bank, B_off[B__pages]);
        if (pages == NULL || page_row(pages, pg, &row) < 0)
            goto done;
        if (row < 0) {
            PyObject *key = PyLong_FromLongLong(pg);
            if (key == NULL || materialize(bank, key, &row) < 0) {
                Py_XDECREF(key);
                goto done;
            }
            Py_DECREF(key);
        }
        PyObject *store = get(bank, B_off[B__store]);
        PyObject *tstore = get(bank, B_off[B__tstore]);
        Py_buffer sv, tv;
        if (store == NULL || tstore == NULL
            || view2d(store, &sv, PyBUF_WRITABLE, 8, pw) < 0)
            goto done;
        if (view2d(tstore, &tv, PyBUF_WRITABLE, 1, pw / 2) < 0) {
            PyBuffer_Release(&sv);
            goto done;
        }
        if (row >= sv.shape[0] || row >= tv.shape[0]) {
            PyErr_SetString(PyExc_IndexError, "page row outside the store");
        }
        else {
            memcpy((unsigned long long *)sv.buf + row * pw + off, vals + i,
                   take * sizeof(unsigned long long));
            memset((char *)tv.buf + row * (pw / 2) + off / 2, 1, take / 2);
        }
        PyBuffer_Release(&sv);
        PyBuffer_Release(&tv);
        if (PyErr_Occurred())
            goto done;
        PyObject *key = PyLong_FromLongLong(pg);
        PyObject *dirty = get(bank, B_off[B__dirty]);
        int bad = key == NULL || dirty == NULL || PySet_Add(dirty, key) < 0;
        Py_XDECREF(key);
        if (bad)
            goto done;
        i += take;
    }
    PyObject *ras = get(bank, B_off[B_ras]);
    if (ras == NULL)
        goto done;
    if (ras != Py_None) {
        if ((masked = PyList_New(nw)) == NULL)
            goto done;
        for (Py_ssize_t k = 0; k < nw; k++) {
            PyObject *w = PyLong_FromUnsignedLongLong(vals[k]);
            if (w == NULL)
                goto done;
            PyList_SET_ITEM(masked, k, w);
        }
        PyObject *r = PyObject_CallMethod(ras, "on_write", "LO", atom0, masked);
        if (r == NULL)
            goto done;
        Py_DECREF(r);
    }
    rc = 0;
done:
    if (vals != small)
        PyMem_Free(vals);
    Py_XDECREF(masked);
    Py_DECREF(seq);
    return rc;
}

static PyObject *
Bank_read(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long rel, nbytes;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "read(byte_addr, nbytes)");
        return NULL;
    }
    if ((rel = PyLong_AsLongLong(args[0])) == -1 && PyErr_Occurred())
        return NULL;
    if ((nbytes = PyLong_AsLongLong(args[1])) == -1 && PyErr_Occurred())
        return NULL;
    return bank_read(self, rel, nbytes, 0);
}

static PyObject *
Bank_write(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long rel;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "write(byte_addr, words)");
        return NULL;
    }
    if ((rel = PyLong_AsLongLong(args[0])) == -1 && PyErr_Occurred())
        return NULL;
    if (bank_write(self, rel, args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* -- queues --------------------------------------------------------------- */

static PyObject *
pair(long long a, long long b)
{
    PyObject *x = PyLong_FromLongLong(a), *y = PyLong_FromLongLong(b);
    PyObject *t = (x && y) ? PyTuple_Pack(2, x, y) : NULL;
    Py_XDECREF(x);
    Py_XDECREF(y);
    return t;
}

/* 1 if *pkt* is a FLOW/MODE packet, 0 if not, -1 on error. */
static int
special_packet(PyObject *pkt)
{
    if (Py_IS_TYPE(pkt, packet_type)) {
        PyObject *v = get(pkt, P_off[P_is_special]);
        return v == NULL ? -1 : PyObject_IsTrue(v);
    }
    PyObject *v = PyObject_GetAttrString(pkt, "is_special");
    int rc = v == NULL ? -1 : PyObject_IsTrue(v);
    Py_XDECREF(v);
    return rc;
}

static int
call_none(PyObject *result)
{
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* Add (*on*) or discard the queue's key in its active set, if bound. */
static int
set_active(PyObject *queue, int on)
{
    PyObject *act = get(queue, Q_off[Q__act_set]);
    PyObject *key = get(queue, Q_off[Q__act_key]);
    if (act == NULL || key == NULL)
        return -1;
    if (act == Py_None)
        return 0;
    if (PySet_Check(act))
        return on ? PySet_Add(act, key) : PySet_Discard(act, key) < 0 ? -1 : 0;
    return call_none(PyObject_CallMethodOneArg(act, on ? s_add : s_discard, key));
}

/* PacketQueue.push of *pkt* at *cycle* onto *queue*, whose deque *q*
 * holds *n* packets, for a caller that checked the room.  FLOW/MODE
 * packets are counted when *specials* is set (requests; a reply never
 * is one, and the inlined reply pushes never counted). */
static int
queue_push(PyObject *queue, PyObject *q, Py_ssize_t n, PyObject *pkt,
           PyObject *cycle, int specials)
{
    PyObject *stamps = get(queue, Q_off[Q__stamps]);
    long long high;
    int special = specials ? special_packet(pkt) : 0;
    if (stamps == NULL || special < 0
        || get_ll(queue, Q_off[Q_high_water], &high) < 0
        || (n == 0 && set_active(queue, 1) < 0)
        || call_none(PyObject_CallMethodOneArg(q, s_append, pkt)) < 0
        || call_none(PyObject_CallMethodOneArg(stamps, s_append, cycle)) < 0
        || add_ll(queue, Q_off[Q_total_enqueued], 1) < 0
        || (special && add_ll(queue, Q_off[Q_special_count], 1) < 0)
        || (n >= high && set_ll(queue, Q_off[Q_high_water], n + 1) < 0))
        return -1;
    return 0;
}

/* Take the head of *queue* (deque *q*), counted as dequeued: a new
 * reference, or NULL.  With *specials* a FLOW/MODE head is uncounted,
 * as PacketQueue.pop does. */
static PyObject *
queue_take(PyObject *queue, PyObject *q, int specials)
{
    PyObject *stamps = get(queue, Q_off[Q__stamps]);
    PyObject *pkt = stamps ? PyObject_CallMethodNoArgs(q, s_popleft) : NULL;
    Py_ssize_t left;
    if (pkt == NULL)
        return NULL;
    int special = specials ? special_packet(pkt) : 0;
    if (special < 0
        || call_none(PyObject_CallMethodNoArgs(stamps, s_popleft)) < 0
        || add_ll(queue, Q_off[Q_total_dequeued], 1) < 0
        || (special && add_ll(queue, Q_off[Q_special_count], -1) < 0)
        || (left = PyObject_Size(q)) < 0 || (left == 0 && set_active(queue, 0) < 0))
        Py_CLEAR(pkt);
    return pkt;
}

/* Drop the head of *queue*, as queue_take takes it. */
static int
queue_pop(PyObject *queue, PyObject *q, int specials)
{
    PyObject *pkt = queue_take(queue, q, specials);
    Py_XDECREF(pkt);
    return pkt == NULL ? -1 : 0;
}

/* Remove the entries at ascending FIFO positions *pos* from *queue*,
 * back to front so earlier positions stay valid; they count as
 * dequeued, as PacketQueue.pop counts them. */
static int
remove_at(PyObject *queue, const Py_ssize_t *pos, Py_ssize_t n)
{
    PyObject *q = get(queue, Q_off[Q__q]), *stamps = get(queue, Q_off[Q__stamps]);
    if (q == NULL || stamps == NULL)
        return -1;
    Py_INCREF(q);
    Py_INCREF(stamps);
    long long specials = 0;
    int rc = -1;
    for (Py_ssize_t i = n - 1; i >= 0; i--) {
        PyObject *pkt = PySequence_GetItem(q, pos[i]);
        if (pkt == NULL)
            goto done;
        int special = special_packet(pkt);
        Py_DECREF(pkt);
        if (special < 0 || PySequence_DelItem(q, pos[i]) < 0
            || PySequence_DelItem(stamps, pos[i]) < 0)
            goto done;
        specials += special;
    }
    if ((specials && add_ll(queue, Q_off[Q_special_count], -specials) < 0)
        || add_ll(queue, Q_off[Q_total_dequeued], n) < 0)
        goto done;
    Py_ssize_t left = PyObject_Size(q);
    if (left < 0 || (left == 0 && set_active(queue, 0) < 0))
        goto done;
    rc = 0;
done:
    Py_DECREF(q);
    Py_DECREF(stamps);
    return rc;
}

static PyObject *
Queue_remove_positions(PyObject *self, PyObject *positions)
{
    PyObject *seq = PySequence_Fast(positions, "positions must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    Py_ssize_t *pos = PyMem_New(Py_ssize_t, n ? n : 1);
    int rc = -1;
    if (pos == NULL)
        PyErr_NoMemory();
    else {
        Py_ssize_t i = 0;
        for (; i < n; i++) {
            pos[i] = PyNumber_AsSsize_t(PySequence_Fast_GET_ITEM(seq, i),
                                        PyExc_IndexError);
            if (pos[i] == -1 && PyErr_Occurred())
                break;
        }
        rc = i < n ? -1 : n ? remove_at(self, pos, n) : 0;
    }
    PyMem_Free(pos);
    Py_DECREF(seq);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* -- the walk ------------------------------------------------------------- */

/* One stage34 call's arguments and the address-map fields it read. */
typedef struct {
    PyObject *self, *cycle_obj, *amap, *tracer, *dev_obj, *row_timing;
    PyObject *busy_obj, *banks;
    long long cycle, busy_cycles, live;
    Py_ssize_t nbanks;
    int classic, have_bank_fields, have_rel_fields;
    long long bs, bmask, cap, ds, dmask, block, omask;
} Walk;

/* Exact busy-bank mask at *cycle*: the vault keeps a superset of the
 * busy banks and a horizon no later than the first one to free, so only
 * a passed horizon re-reads the flagged banks. */
static int
busy_state(PyObject *vault, PyObject *banks, long long cycle,
           unsigned long long *out)
{
    PyObject *m = get(vault, V_off[V__busy_mask]);
    long long next_free;
    if (m == NULL || get_ll(vault, V_off[V__next_free], &next_free) < 0)
        return -1;
    unsigned long long mask = PyLong_AsUnsignedLongLong(m);
    if (mask == (unsigned long long)-1 && PyErr_Occurred())
        return -1;
    if (mask && cycle >= next_free) {
        unsigned long long rest = mask, live = 0;
        long long nf = far_cycle, bu;
        while (rest) {
            unsigned long long low = rest & -rest;
            Py_ssize_t i = __builtin_ctzll(low);
            if (i >= PyList_GET_SIZE(banks)) {
                PyErr_SetString(PyExc_IndexError, "busy bank outside the vault");
                return -1;
            }
            PyObject *bank = PyList_GET_ITEM(banks, i);
            if (check_type(bank, bank_type) < 0
                || get_ll(bank, B_off[B_busy_until], &bu) < 0)
                return -1;
            if (cycle < bu) {
                live |= low;
                if (bu < nf)
                    nf = bu;
            }
            rest ^= low;
        }
        if (set_new(vault, V_off[V__busy_mask], PyLong_FromUnsignedLongLong(live)) < 0
            || set_ll(vault, V_off[V__next_free], nf) < 0)
            return -1;
        mask = live;
    }
    *out = mask;
    return 0;
}

/* The packet's bank, decoded once and cached in ``dec_bank``. */
static int
packet_bank(Walk *w, PyObject *pkt, long long *out)
{
    long long bank;
    if (get_ll(pkt, P_off[P_dec_bank], &bank) < 0)
        return -1;
    if (bank < 0) {
        PyObject *addr = get(pkt, P_off[P_addr]);
        if (addr == NULL)
            return -1;
        if (w->classic) {
            if (!w->have_bank_fields) {
                if (attr_ll(w->amap, s_bs, &w->bs) < 0
                    || attr_ll(w->amap, s_bank_mask, &w->bmask) < 0)
                    return -1;
                w->have_bank_fields = 1;
            }
            long long a = PyLong_AsLongLong(addr);
            if (a == -1 && PyErr_Occurred())
                return -1;
            bank = (a >> w->bs) & w->bmask;
        }
        else if (call_ll(PyObject_CallMethodOneArg(w->amap, s_bank_of, addr),
                         &bank) < 0)
            return -1;
        if (set_ll(pkt, P_off[P_dec_bank], bank) < 0)
            return -1;
    }
    if (bank < 0 || bank >= w->nbanks) {
        PyErr_Format(PyExc_IndexError, "bank %lld outside the vault", bank);
        return -1;
    }
    *out = bank;
    return 0;
}

/* Append *entry* (a new reference, or NULL after a failed build) to
 * the tracer's buffer, count it and flush a full buffer: the walk's
 * events and ``Tracer.emit_fast``, with no Python frame. */
static int
trace_append(PyObject *t, PyObject *entry)
{
    PyObject *buf = entry == NULL ? NULL : get(t, T_off[T__buf]);
    long long limit;
    int rc = buf == NULL ? -1 : PyList_CheckExact(buf) ? PyList_Append(buf, entry)
        : (PyErr_SetString(PyExc_TypeError, "Tracer._buf is a list"), -1);
    Py_XDECREF(entry);
    if (rc < 0 || add_ll(t, T_off[T_emitted], 1) < 0
        || get_ll(t, T_off[T__limit], &limit) < 0)
        return -1;
    if (PyList_GET_SIZE(buf) < limit)
        return 0;
    PyObject *r = PyObject_CallMethodNoArgs(t, s_flush);
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

static int
emit(Walk *w, PyObject *etype, long long bank, PyObject *serial, PyObject *extra)
{
    PyObject *quad = get(w->self, V_off[V_quad_id]);
    PyObject *vid = get(w->self, V_off[V_vault_id]);
    PyObject *bank_obj = quad && vid ? PyLong_FromLongLong(bank) : NULL;
    if (bank_obj == NULL)
        return -1;
    PyObject *entry = PyTuple_Pack(10, etype, w->cycle_obj, w->dev_obj, minus_one,
                                   quad, vid, bank_obj, minus_one, serial, extra);
    Py_DECREF(bank_obj);
    return trace_append(w->tracer, entry);
}

/* ``Tracer.emit_fast(etype, cycle, dev=-1, link=-1, quad=-1, vault=-1,
 * bank=-1, stage=-1, serial=-1, extra=None)``, positional only. */
static PyObject *
Tracer_emit_fast(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2 || nargs > 10) {
        PyErr_Format(PyExc_TypeError, "emit_fast() takes 2 to 10 arguments "
                     "(%zd given)", nargs);
        return NULL;
    }
    PyObject *entry = PyTuple_New(10);
    for (int i = 0; entry != NULL && i < 10; i++)
        PyTuple_SET_ITEM(entry, i, Py_NewRef(i < nargs ? args[i]
                                             : i < 9 ? minus_one : Py_None));
    if (trace_append(self, entry) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ``(("addr", addr),)`` or ``(("addr", addr), ("busy", ...))``. */
static PyObject *
addr_extra(PyObject *addr, PyObject *busy)
{
    PyObject *pair = PyTuple_Pack(2, s_addr, addr);
    if (pair == NULL)
        return NULL;
    PyObject *extra = busy ? PyTuple_Pack(2, pair, busy) : PyTuple_Pack(1, pair);
    Py_DECREF(pair);
    return extra;
}

static int
emit_addr(Walk *w, PyObject *etype, long long bank, PyObject *pkt,
          PyObject *busy)
{
    PyObject *addr = get(pkt, P_off[P_addr]);
    PyObject *serial = get(pkt, P_off[P_serial]);
    if (addr == NULL || serial == NULL)
        return -1;
    PyObject *extra = addr_extra(addr, busy);
    if (extra == NULL)
        return -1;
    int rc = emit(w, etype, bank, serial, extra);
    Py_DECREF(extra);
    return rc;
}

/* Number *pkt* with the next serial of *tracer*'s simulation. */
static int
take_serial(PyObject *pkt, PyObject *tracer)
{
    PyObject *serial = get(tracer, T_off[T_next_serial]);
    return serial == NULL || set_ref(pkt, P_off[P_serial], serial) < 0
        || add_ll(tracer, T_off[T_next_serial], 1) < 0 ? -1 : 0;
}

/* Queue *rsp* (a new reference, consumed) as *request*'s reply in the
 * vault's response queue, numbered with the next serial of *tracer*'s
 * simulation; the caller proved the room. */
static int
push_reply(PyObject *vault, PyObject *rsp, PyObject *request, PyObject *cycle,
           PyObject *tracer)
{
    int rc = -1;
    PyObject *queue = get(vault, V_off[V_rsp]);
    if (queue == NULL || check_type(queue, queue_type) < 0
        || check_type(rsp, packet_type) < 0
        || check_type(request, packet_type) < 0
        || check_type(tracer, tracer_type) < 0 || take_serial(rsp, tracer) < 0)
        goto done;
    PyObject *stack = get(request, P_off[P_route_stack]);
    if (stack == NULL)
        goto done;
    /* The route stack is copied: a caller of HMCSim.send may still hold
     * the request, and stage 5 pops the reply's stack. */
    static const int copied[] = {P_src_cub, P_injected_at, P_ingress_link, P_hops};
    static const int from[] = {P_cub, P_injected_at, P_ingress_link, P_hops};
    for (int i = 0; i < 4; i++) {
        PyObject *v = get(request, P_off[from[i]]);
        if (v == NULL || set_ref(rsp, P_off[copied[i]], v) < 0)
            goto done;
    }
    if (set_new(rsp, P_off[P_route_stack], PySequence_List(stack)) < 0)
        goto done;
    PyObject *q = get(queue, Q_off[Q__q]);
    Py_ssize_t n = q ? PyObject_Size(q) : -1;
    if (n < 0 || queue_push(queue, q, n, rsp, cycle, 0) < 0)
        goto done;
    rc = 0;
done:
    Py_DECREF(rsp);
    return rc;
}

/* A reply to *request* copied from its command's prototype. */
static PyObject *
new_reply(long cmd, PyObject *request, PyObject *payload)
{
    PyObject *proto = reply_proto[cmd];
    PyObject *rsp = packet_type->tp_alloc(packet_type, 0);
    if (rsp == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < packet_nslots; i++) {
        PyObject *v = SLOT(proto, packet_all_off[i]);
        Py_XINCREF(v);
        SLOT(rsp, packet_all_off[i]) = v;
    }
    static const int echoed[] = {P_cub, P_tag, P_slid};
    for (int i = 0; i < 3; i++) {
        PyObject *v = get(request, P_off[echoed[i]]);
        if (v == NULL || set_ref(rsp, P_off[echoed[i]], v) < 0)
            goto fail;
    }
    if (payload != NULL
        && (set_ref(rsp, P_off[P_payload], payload) < 0
            || set_ll(rsp, P_off[P_num_flits], 1 + PyTuple_GET_SIZE(payload) / 2) < 0))
        goto fail;
    return rsp;
fail:
    Py_DECREF(rsp);
    return NULL;
}

/* Bank-relative byte address of *addr*. */
static int
bank_rel(Walk *w, PyObject *addr_obj, long long addr, long long *rel)
{
    if (w->classic) {
        if (!w->have_rel_fields) {
            if (attr_ll(w->amap, s_capacity_bytes, &w->cap) < 0
                || attr_ll(w->amap, s_ds, &w->ds) < 0
                || attr_ll(w->amap, s_dram_mask, &w->dmask) < 0
                || attr_ll(w->amap, s_block_size, &w->block) < 0
                || attr_ll(w->amap, s_offset_mask, &w->omask) < 0)
                return -1;
            w->have_rel_fields = 1;
        }
        if (0 <= addr && addr < w->cap) {
            *rel = ((addr >> w->ds) & w->dmask) * w->block + (addr & w->omask);
            return 0;
        }
    }
    long long dram, offset, block;
    PyObject *d = PyObject_CallMethodOneArg(w->amap, s_decode, addr_obj);
    if (d == NULL)
        return -1;
    int bad = attr_ll(d, s_dram, &dram) < 0 || attr_ll(d, s_offset, &offset) < 0;
    Py_DECREF(d);
    if (bad || attr_ll(w->amap, s_block_size, &block) < 0)
        return -1;
    *rel = dram * block + offset;
    return 0;
}

/* Cycles the access keeps the bank busy: the closed-page constant, or the
 * open-row hit/miss time (row_timing, a tuple once per stage34 call). */
static int
busy_cycles(Walk *w, PyObject *bank, PyObject *addr, long long *out)
{
    if (w->row_timing == Py_None) {
        *out = w->busy_cycles;
        return 0;
    }
    PyObject *row = PyObject_CallMethodOneArg(w->amap, s_dram_of, addr);
    if (row == NULL)
        return -1;
    PyObject *args[] = {bank, row, w->busy_obj, Py_True,
                        PyTuple_GET_ITEM(w->row_timing, 0),
                        PyTuple_GET_ITEM(w->row_timing, 1)};
    int rc = call_ll(PyObject_VectorcallMethod(s_access_busy_cycles, args, 6, NULL),
                     out);
    Py_DECREF(row);
    return rc;
}

/* Run *pkt* against *bank*, number *bank_id*; *taken* is the
 * response-queue slots its reply took (0 or 1). */
static int
execute_on(Walk *w, PyObject *pkt, PyObject *bank, long long bank_id,
           long long *taken)
{
    PyObject *cmd_obj = get(pkt, P_off[P_cmd]);
    PyObject *cls = get(pkt, P_off[P_cls]);
    PyObject *addr_obj = get(pkt, P_off[P_addr]);
    PyObject *payload = get(pkt, P_off[P_payload]);
    PyObject *self = w->self;
    if (cmd_obj == NULL || cls == NULL || addr_obj == NULL || payload == NULL)
        return -1;
    long cmd = PyLong_AsLong(cmd_obj);
    long long addr = PyLong_AsLongLong(addr_obj), nbytes, rel, cap;
    if (PyErr_Occurred())
        return -1;
    if (cmd < 0 || cmd >= NCMD) {
        PyErr_Format(PyExc_KeyError, "command %ld", cmd);
        return -1;
    }
    if (cls == cls_read) {
        if ((nbytes = read_bytes[cmd]) == 0) {
            PyErr_SetObject(PyExc_KeyError, cmd_obj);
            return -1;
        }
    }
    else {
        Py_ssize_t n = PyObject_Size(payload);
        if (n < 0)
            return -1;
        nbytes = n * 8 < 16 ? 16 : n * 8;
    }
    if (bank_rel(w, addr_obj, addr, &rel) < 0
        || get_ll(bank, B_off[B_capacity_bytes], &cap) < 0)
        return -1;
    int bwr = is_bwr_cmd[cmd];
    /* Requests past the bank's end, or misaligned, are failed reads and
     * writes: an error reply, not a crash (§IV.2 misconfiguration). */
    if (rel + (bwr ? 8 : nbytes) > cap || rel % (bwr ? 8 : 16) != 0)
        return call_ll(PyObject_CallMethodObjArgs(
            self, s_error_response, pkt, err_address, w->cycle_obj,
            w->tracer, w->dev_obj, NULL), taken);
    long long busy, next_free;
    if (busy_cycles(w, bank, addr_obj, &busy) < 0)
        return -1;
    /* Bank.occupy, for the bank's owner. */
    long long free_at = w->cycle + busy;
    PyObject *m = get(self, V_off[V__busy_mask]);
    if (m == NULL || set_ll(bank, B_off[B_busy_until], free_at) < 0)
        return -1;
    unsigned long long mask = PyLong_AsUnsignedLongLong(m);
    if ((mask == (unsigned long long)-1 && PyErr_Occurred())
        || set_new(self, V_off[V__busy_mask],
                   PyLong_FromUnsignedLongLong(mask | 1ULL << bank_id)) < 0
        || get_ll(self, V_off[V__next_free], &next_free) < 0
        || (free_at < next_free && set_ll(self, V_off[V__next_free], free_at) < 0))
        return -1;
    int expects = get(pkt, P_off[P_expects_response]) == Py_True;
    if (cls == cls_read) {
        PyObject *data = bank_read(bank, rel, nbytes, 1);
        if (data == NULL)
            return -1;
        if (add_ll(self, V_off[V_rd_count], 1) < 0
            || ((w->live & m_read) && emit_addr(w, ev_read, bank_id, pkt, NULL) < 0)) {
            Py_DECREF(data);
            return -1;
        }
        PyObject *rsp = reply_proto[cmd] ? new_reply(cmd, pkt, data) : NULL;
        Py_DECREF(data);
        if (rsp == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, cmd_obj);
            return -1;
        }
        *taken = 1;
        return push_reply(self, rsp, pkt, w->cycle_obj, w->tracer);
    }
    if (bwr || cls == cls_atomic || cls == cls_posted_atomic) {
        PyObject *bank_obj = PyLong_FromLongLong(bank_id);
        PyObject *rel_obj = PyLong_FromLongLong(rel);
        PyObject *r = NULL;
        if (bank_obj && rel_obj)
            r = PyObject_CallMethodObjArgs(self, s_read_modify_write, pkt,
                                           bank_obj, rel_obj, w->cycle_obj,
                                           w->tracer, w->dev_obj, NULL);
        Py_XDECREF(bank_obj);
        Py_XDECREF(rel_obj);
        return call_ll(r, taken);
    }
    if (cls == cls_write || cls == cls_posted_write) {
        if (bank_write(bank, rel, payload) < 0
            || add_ll(self, V_off[V_wr_count], 1) < 0
            || ((w->live & m_write) && emit_addr(w, ev_write, bank_id, pkt, NULL) < 0))
            return -1;
        *taken = 0;
        if (!expects)
            return 0;
        PyObject *rsp = reply_proto[cmd] ? new_reply(cmd, pkt, NULL) : NULL;
        if (rsp == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, cmd_obj);
            return -1;
        }
        *taken = 1;
        return push_reply(self, rsp, pkt, w->cycle_obj, w->tracer);
    }
    return call_ll(PyObject_CallMethodObjArgs(
        self, s_error_response, pkt, err_cmd, w->cycle_obj, w->tracer,
        w->dev_obj, NULL), taken);
}

/* execute_on, holding the bank across the Python it calls back. */
static int
execute(Walk *w, PyObject *pkt, long long bank_id, long long *taken)
{
    PyObject *bank = PyList_GET_ITEM(w->banks, bank_id);
    if (check_type(bank, bank_type) < 0)
        return -1;
    Py_INCREF(bank);
    int rc = execute_on(w, pkt, bank, bank_id, taken);
    Py_DECREF(bank);
    return rc;
}

static int
parse_ll(PyObject *o, long long *out)
{
    *out = PyLong_AsLongLong(o);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int walk(Walk w, PyObject *rqst, long long window, long long width,
                long long *conflicts_out, long long *issued_out);

/* *row_timing* as the walk reads it: None, or a (hit, miss) tuple. */
static PyObject *
row_timing_of(PyObject *o)
{
    PyObject *t = o == Py_None ? Py_NewRef(o) : PySequence_Tuple(o);
    if (t != NULL && t != Py_None && PyTuple_GET_SIZE(t) != 2) {
        Py_DECREF(t);
        PyErr_SetString(PyExc_ValueError, "row_timing is (hit_cycles, miss_cycles)");
        return NULL;
    }
    return t;
}

/* Stages 3 and 4 of *vault*, with *w*'s call-wide fields set. */
static int
walk_vault(Walk w, PyObject *vault, long long window, long long width,
           long long *conflicts, long long *issued)
{
    *conflicts = *issued = 0;
    if (check_type(vault, vault_type) < 0)
        return -1;
    PyObject *rqst = get(vault, V_off[V_rqst]);
    w.self = vault;
    w.banks = get(vault, V_off[V_banks]);
    if (rqst == NULL || w.banks == NULL || check_type(rqst, queue_type) < 0)
        return -1;
    if (!PyList_Check(w.banks) || PyList_GET_SIZE(w.banks) > NBANK) {
        PyErr_SetString(PyExc_ValueError, "a vault holds a list of at most 64 banks");
        return -1;
    }
    w.nbanks = PyList_GET_SIZE(w.banks);
    /* Held across the Python the walk calls back. */
    Py_INCREF(rqst);
    Py_INCREF(w.banks);
    int rc = walk(w, rqst, window, width, conflicts, issued);
    Py_DECREF(w.banks);
    Py_DECREF(rqst);
    return rc;
}

static PyObject *
Vault_stage34(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *names[] = {"cycle", "amap", "window", "issue_width",
                            "bank_busy_cycles", "tracer", "dev_id", "row_timing", NULL};
    Walk w = {.row_timing = Py_None};
    long long window, width, conflicts, issued;
    if (!PyArg_ParseTupleAndKeywords(args, kw, "OOLLOOO|O:stage34", names, &w.cycle_obj,
                                     &w.amap, &window, &width, &w.busy_obj, &w.tracer,
                                     &w.dev_obj, &w.row_timing)
        || parse_ll(w.cycle_obj, &w.cycle) < 0 || parse_ll(w.busy_obj, &w.busy_cycles) < 0
        || (w.row_timing = row_timing_of(w.row_timing)) == NULL)
        return NULL;
    w.classic = Py_IS_TYPE(w.amap, amap_type);
    int rc = walk_vault(w, self, window, width, &conflicts, &issued);
    Py_DECREF(w.row_timing);
    return rc < 0 ? NULL : pair(conflicts, issued);
}

/* Stages 3 and 4 over *rqst*, the vault's request queue. */
static int
walk(Walk w, PyObject *rqst, long long window, long long width,
     long long *conflicts_out, long long *issued_out)
{
    PyObject *self = w.self;
    PyObject *q = get(rqst, Q_off[Q__q]);
    if (q == NULL)
        return -1;
    Py_ssize_t qlen = PyObject_Size(q);
    if (qlen <= 0)
        return qlen < 0 ? -1 : 0;
    unsigned long long busy_mask;
    if (busy_state(self, w.banks, w.cycle, &busy_mask) < 0
        || check_type(w.tracer, tracer_type) < 0
        || get_ll(w.tracer, T_off[T_live_mask], &w.live) < 0)
        return -1;

    PyObject *it = NULL, *pkt = NULL;
    Py_ssize_t small[128], *removed = small, nremoved = 0, room_left = 128;
    long long conflicts = 0, issued = 0, bank;

    /* Stage 3 (§IV.C.3): conflict recognition, read-only.  A packet
     * among the first *window* conflicts when its bank is busy or an
     * earlier windowed packet targets it. */
    unsigned long long seen = busy_mask, hit = 0;
    long long per_bank[NBANK];
    if (window > 0 && (it = PyObject_GetIter(q)) == NULL)
        return -1;
    for (long long i = 0; i < window && (pkt = PyIter_Next(it)) != NULL; i++) {
        if (check_type(pkt, packet_type) < 0)
            goto fail;
        if (get(pkt, P_off[P_is_special]) != Py_False) {
            if (PyErr_Occurred())
                goto fail;
            Py_CLEAR(pkt);
            continue;       /* FLOW / MODE: no bank access */
        }
        if (packet_bank(&w, pkt, &bank) < 0)
            goto fail;
        unsigned long long bit = 1ULL << bank;
        if (seen & bit) {
            conflicts++;
            per_bank[bank] = hit & bit ? per_bank[bank] + 1 : 1;
            hit |= bit;
            if (((w.live & m_conflict)
                    && emit_addr(&w, ev_conflict, bank, pkt,
                                 busy_mask & bit ? busy_true : busy_false) < 0))
                goto fail;
        }
        else
            seen |= bit;
        Py_CLEAR(pkt);
    }
    Py_CLEAR(it);
    if (PyErr_Occurred())
        goto fail;
    /* Each bank's conflict count is written once per walk. */
    for (unsigned long long rest = hit; rest; rest &= rest - 1) {
        int b = __builtin_ctzll(rest);
        PyObject *target = PyList_GET_ITEM(w.banks, b);
        if (check_type(target, bank_type) < 0
            || add_ll(target, B_off[B_conflicts], per_bank[b]) < 0)
            goto fail;
    }
    if (add_ll(self, V_off[V_conflict_count], conflicts) < 0)
        goto fail;
    *conflicts_out = conflicts;

    /* Stage 4 (§IV.C.4): retire up to *width* requests in FIFO order.  A
     * packet issues when its bank is free and no earlier queued packet
     * targets it; one needing a reply stalls in place while the response
     * queue is full.  The scan stops at the width, or once every bank
     * free this cycle is blocked with no FLOW/MODE packet left ahead:
     * past that point it could change nothing. */
    if (width <= 0)
        return 0;
    long long specials, depth;
    PyObject *rsp_queue = get(self, V_off[V_rsp]);
    if (rsp_queue == NULL || check_type(rsp_queue, queue_type) < 0)
        return -1;
    PyObject *rsp_q = get(rsp_queue, Q_off[Q__q]);
    if (rsp_q == NULL || get_ll(rqst, Q_off[Q_special_count], &specials) < 0
        || get_ll(rsp_queue, Q_off[Q_depth], &depth) < 0)
        return -1;
    long long free_banks = w.nbanks - __builtin_popcountll(busy_mask);
    if (free_banks == 0 && !specials) {
        if (add_ll(self, V_off[V_issue_stall_cycles], 1) < 0)
            return -1;
        return 0;
    }
    Py_ssize_t nrsp = PyObject_Size(rsp_q);
    if (nrsp < 0)
        return -1;
    if (qlen > 128) {
        if ((removed = PyMem_New(Py_ssize_t, qlen)) == NULL)
            return PyErr_NoMemory(), -1;
        room_left = qlen;
    }
    if ((it = PyObject_GetIter(q)) == NULL)
        goto fail;
    long long room = depth - nrsp, closed = 0, taken;
    unsigned long long blocked = busy_mask;
    for (Py_ssize_t pos = 0; (pkt = PyIter_Next(it)) != NULL; pos++) {
        if (pos >= room_left) {
            PyErr_SetString(PyExc_RuntimeError, "vault queue grew during its walk");
            goto fail;
        }
        if (check_type(pkt, packet_type) < 0)
            goto fail;
        PyObject *special = get(pkt, P_off[P_is_special]);
        if (special == NULL)
            goto fail;
        if (special != Py_False) {
            specials--;
            PyObject *cls = get(pkt, P_off[P_cls]);
            if (cls == NULL)
                goto fail;
            int retire = 1;
            if (cls == cls_flow)
                ;   /* flow packets carry no memory operation */
            else if (room <= 0) {
                retire = 0;
                if (add_ll(self, V_off[V_rsp_stall_count], 1) < 0)
                    goto fail;
            }
            else {
                if (call_ll(PyObject_CallMethodObjArgs(
                        self, s_do_mode, pkt, w.cycle_obj, w.tracer, w.dev_obj,
                        NULL), &taken) < 0)
                    goto fail;
                room -= taken;
                issued++;
            }
            if (retire) {
                removed[nremoved++] = pos;
                if (cls != cls_flow && issued >= width)
                    break;
            }
            Py_CLEAR(pkt);
            if (!specials && closed >= free_banks)
                break;
            continue;
        }
        if (packet_bank(&w, pkt, &bank) < 0)
            goto fail;
        unsigned long long bit = 1ULL << bank;
        if (blocked & bit) {
            Py_CLEAR(pkt);
            continue;       /* this and every later same-bank packet wait */
        }
        if (get(pkt, P_off[P_expects_response]) == Py_True && room <= 0) {
            PyObject *serial = get(pkt, P_off[P_serial]);
            if (serial == NULL || add_ll(self, V_off[V_rsp_stall_count], 1) < 0
                || ((w.live & m_stall)
                    && emit(&w, ev_stall, -1, serial, Py_None) < 0))
                goto fail;
            blocked |= bit; /* later same-bank packets may not pass */
        }
        else {
            if (execute(&w, pkt, bank, &taken) < 0)
                goto fail;
            room -= taken;
            blocked |= bit; /* one access per bank per cycle */
            issued++;
            removed[nremoved++] = pos;
            if (issued >= width)
                break;
        }
        Py_CLEAR(pkt);
        if (++closed >= free_banks && !specials)
            break;
    }
    Py_CLEAR(pkt);
    Py_CLEAR(it);
    if (PyErr_Occurred())
        goto fail;
    if (nremoved && remove_at(rqst, removed, nremoved) < 0)
        goto fail;
    if (removed != small)
        PyMem_Free(removed);
    if (issued == 0) {
        PyObject *left_q = get(rqst, Q_off[Q__q]);
        Py_ssize_t left = left_q ? PyObject_Size(left_q) : -1;
        if (left < 0 || (left && add_ll(self, V_off[V_issue_stall_cycles], 1) < 0))
            return -1;
    }
    *issued_out = issued;
    return 0;
fail:
    Py_XDECREF(pkt);
    Py_XDECREF(it);
    if (removed != small)
        PyMem_Free(removed);
    return -1;
}

static PyObject *
Vault_busy_state(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long cycle;
    unsigned long long mask;
    PyObject *banks = get(self, V_off[V_banks]);
    if (nargs != 1) {
        PyErr_SetString(PyExc_TypeError, "_busy_state(cycle)");
        return NULL;
    }
    if (banks == NULL || parse_ll(args[0], &cycle) < 0)
        return NULL;
    if (!PyList_Check(banks)) {
        PyErr_SetString(PyExc_TypeError, "vault banks must be a list");
        return NULL;
    }
    if (busy_state(self, banks, cycle, &mask) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(mask);
}

static PyObject *
Vault_push_response(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "_push_response(rsp, request, cycle, tracer)");
        return NULL;
    }
    Py_INCREF(args[0]);
    if (push_reply(self, args[0], args[1], args[2], args[3]) < 0)
        return NULL;
    return PyLong_FromLong(1);
}

/* -- the crossbar: stages 1, 2 and 5 -------------------------------------- */

/* One stage call's reads of the simulator and the tracer. */
typedef struct {
    PyObject *sim, *tracer, *cycle_obj, *devices;
    long long cycle, live, moves, penalty, timeout, num_devs;
} Stage;

static int
stage_begin(Stage *s, PyObject *sim, PyObject *cycle, PyObject *moves,
            PyObject *tracer)
{
    PyObject *config = NULL;
    *s = (Stage){.sim = sim, .tracer = tracer, .cycle_obj = cycle};
    int rc = parse_ll(cycle, &s->cycle) < 0 || parse_ll(moves, &s->moves) < 0
        || check_type(tracer, tracer_type) < 0
        || get_ll(tracer, T_off[T_live_mask], &s->live) < 0
        || (config = PyObject_GetAttr(sim, s_config)) == NULL
        || attr_ll(config, s_queue_timeout, &s->timeout) < 0
        || attr_ll(config, s_penalty, &s->penalty) < 0
        || attr_ll(config, s_num_devs, &s->num_devs) < 0
        || (s->devices = PyObject_GetAttr(sim, s_devices)) == NULL ? -1 : 0;
    Py_XDECREF(config);
    return rc;
}

/* Attribute *name* of *o* plus *d*: the link counters and the
 * simulator's drop count live in instance dicts, not slots. */
static int
add_attr(PyObject *o, PyObject *name, long long d)
{
    long long x;
    PyObject *v = attr_ll(o, name, &x) < 0 ? NULL : PyLong_FromLongLong(x + d);
    int rc = v == NULL ? -1 : PyObject_SetAttr(o, name, v);
    Py_XDECREF(v);
    return rc;
}

/* Link *idx* of device *dev* carried a packet of *flits* FLITs. */
static int
count_link(PyObject *dev, PyObject *idx, PyObject *packets, PyObject *flits_name,
           long long flits)
{
    PyObject *links = get(dev, D_off[D_links]);
    PyObject *link = links ? PyObject_GetItem(links, idx) : NULL;
    int rc = link == NULL || add_attr(link, packets, 1) < 0
        || add_attr(link, flits_name, flits) < 0 ? -1 : 0;
    Py_XDECREF(link);
    return rc;
}

/* The ids in the active set in slot *off* of *dev*, as a bitmask: its
 * bit order is ``sorted(act)``, taken before the stage changes it. */
static int
act_mask(PyObject *dev, Py_ssize_t off, unsigned long long *out)
{
    PyObject *act = get(dev, off), *it = act ? PyObject_GetIter(act) : NULL, *id;
    *out = 0;
    if (it == NULL)
        return -1;
    while ((id = PyIter_Next(it)) != NULL) {
        long long v = PyLong_AsLongLong(id);
        Py_DECREF(id);
        if (v == -1 && PyErr_Occurred())
            break;
        if (v < 0 || v >= 64) {
            PyErr_Format(PyExc_IndexError, "queue id %lld outside 0..63", v);
            break;
        }
        *out |= 1ULL << v;
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? -1 : 0;
}

/* Item *i* of the list in slot *off* of *o*, a *tp*; borrowed. */
static PyObject *
item_of(PyObject *o, Py_ssize_t off, long long i, PyTypeObject *tp)
{
    PyObject *list = get(o, off);
    if (list != NULL && !PyList_Check(list))
        PyErr_Format(PyExc_TypeError, "%s holds lists", Py_TYPE(o)->tp_name);
    PyObject *x = list && PyList_Check(list) ? PyList_GetItem(list, i) : NULL;
    return x == NULL || check_type(x, tp) < 0 ? NULL : x;
}

/* The PacketQueue in slot *off* of *o*, with its deque in *q*; borrowed. */
static PyObject *
queue_of(PyObject *o, Py_ssize_t off, PyObject **q)
{
    PyObject *queue = get(o, off);
    if (queue == NULL || check_type(queue, queue_type) < 0
        || (*q = get(queue, Q_off[Q__q])) == NULL)
        return NULL;
    return queue;
}

/* A stage event without extras, buffered as ``emit_fast`` buffers it. */
static int
emit_stage(Stage *s, PyObject *etype, PyObject *dev, PyObject *link,
           PyObject *quad, PyObject *vault, PyObject *serial)
{
    return trace_append(s->tracer, PyTuple_Pack(
        10, etype, s->cycle_obj, dev, link, quad, vault, minus_one, minus_one,
        serial, Py_None));
}

/* ``tracer.event(etype, cycle, dev=, link=, serial=, extra={k1: v1})``,
 * with ``k2: v2`` too when *k2* is given. */
static int
event_call(Stage *s, PyObject *etype, PyObject *dev, PyObject *link,
           PyObject *serial, PyObject *k1, PyObject *v1, PyObject *k2, PyObject *v2)
{
    PyObject *extra = PyDict_New();
    int rc = extra == NULL || PyDict_SetItem(extra, k1, v1) < 0
        || (k2 && PyDict_SetItem(extra, k2, v2) < 0) ? -1 : 0;
    if (rc == 0) {
        PyObject *args[] = {s->tracer, etype, s->cycle_obj, dev, link, serial, extra};
        rc = call_none(PyObject_VectorcallMethod(s_event, args, 3, event_kw));
    }
    Py_XDECREF(extra);
    return rc;
}

/* One crossbar's routing pass. */
typedef struct {
    Stage *s;
    PyObject *xbar, *dev, *dev_obj, *link_obj, *held;
    long long dev_id;
} Route;

/* ``CrossbarUnit._reject(pkt, device, cycle, tracer, errstat)``. */
static int
reject(Route *r, PyObject *pkt, PyObject *errstat)
{
    PyObject *args[] = {r->xbar, pkt, r->dev, r->s->cycle_obj, r->s->tracer, errstat};
    return call_none(PyObject_VectorcallMethod(s_reject, args, 6, NULL));
}

/* Hold every cube *table* routes through *egress* for the rest of the
 * walk: its gate stalled, and a busy direction offered again changes
 * nothing.  A dead link is not held: the rebuilt routes avoid it. */
static int
hold_egress(Route *r, PyObject *table, PyObject *egress)
{
    PyObject *target, *route;
    Py_ssize_t i = 0;
    if (!PyDict_Check(table)) {
        PyErr_SetString(PyExc_TypeError, "a route table is a dict");
        return -1;
    }
    if (r->held == NULL && (r->held = PySet_New(NULL)) == NULL)
        return -1;
    while (PyDict_Next(table, &i, &target, &route)) {
        PyObject *link = PySequence_GetItem(route, 0);
        int same = link ? PyObject_RichCompareBool(link, egress, Py_EQ) : -1;
        Py_XDECREF(link);
        if (same < 0 || (same && PySet_Add(r->held, target) < 0))
            return -1;
    }
    return 0;
}

/* Forward *pkt* one hop toward cube *cub*: 1 if it left the queue (an
 * error reply counts), 0 if it stays, -1 on error. */
static int
route_remote(Route *r, PyObject *pkt, PyObject *cub_obj, long long cub,
             PyObject *serial)
{
    Stage *s = r->s;
    PyObject *routes = PyObject_GetAttr(s->sim, s_routes), *table = NULL;
    PyObject *hop = NULL, *peer = NULL, *faults = NULL, *sender = NULL;
    PyObject *state = NULL, *status = NULL, *record = NULL, *pxbar, *prq, *pq;
    Py_ssize_t n;
    long long depth, flits, plink;
    int rc = -1, faulty;
    if (routes == Py_None)  /* built lazily; a dead link resets them */
        Py_SETREF(routes, call_none(PyObject_CallMethodNoArgs(s->sim, s_build_routes))
                  ? NULL : PyObject_GetAttr(s->sim, s_routes));
    if (routes == NULL || (table = PyObject_GetItem(routes, r->dev_obj)) == NULL
        || (0 <= cub && cub < s->num_devs
            && (hop = PyObject_CallMethodOneArg(table, s_get, cub_obj)) == NULL))
        goto done;
    if (hop == NULL || hop == Py_None) {
        /* Misroute: no path to the cube.  Per §IV.2 the user receives an
         * error response rather than a crash. */
        if (add_ll(r->xbar, C_off[C_misroutes], 1) == 0
            && event_call(s, member_misroute, r->dev_obj, r->link_obj, serial,
                          s_target_cub, cub_obj, NULL, NULL) == 0
            && reject(r, pkt, err_unroutable) == 0)
            rc = 1;
        goto done;
    }
    PyObject *egress, *pdev, *plink_obj;   /* the route: a 3-tuple */
    if (!PyArg_ParseTuple(hop, "OOO", &egress, &pdev, &plink_obj)
        || (peer = PyObject_GetItem(s->devices, pdev)) == NULL
        || check_type(peer, device_type) < 0 || parse_ll(plink_obj, &plink) < 0
        || (pxbar = item_of(peer, D_off[D_xbars], plink, xbar_type)) == NULL
        || (prq = queue_of(pxbar, C_off[C_rqst], &pq)) == NULL
        || (n = PyObject_Size(pq)) < 0 || get_ll(prq, Q_off[Q_depth], &depth) < 0)
        goto done;
    if (n >= depth) {
        if (add_ll(r->xbar, C_off[C_stall_events], 1) == 0
            && (!(s->live & m_rqst_stall)
                || event_call(s, member_rqst_stall, r->dev_obj, r->link_obj, serial,
                              s_remote, Py_True, s_target_cub, cub_obj) == 0))
            rc = 0;
        goto done;
    }
    if ((faults = PyObject_GetAttr(s->sim, s_link_faults)) == NULL
        || (faulty = PyObject_IsTrue(faults)) < 0)
        goto done;
    /* In-band gate: the chain hop crosses the link retry protocol.  A
     * failed transmission leaves the packet for the replay window, a
     * dead link for rerouting, or a misroute when no path survives. */
    if (faulty && ((sender = PyTuple_Pack(2, r->dev_obj, egress)) == NULL
                   || (state = PyObject_CallMethodOneArg(faults, s_get, sender)) == NULL))
        goto done;
    if (state != NULL && state != Py_None) {
        PyObject *args[] = {state, sender, pkt, s->cycle_obj, s->tracer};
        if ((status = PyObject_VectorcallMethod(s_try_transmit, args, 5, NULL)) == NULL)
            goto done;
        if (status != tx_ok) {
            if ((status == tx_dead
                 ? call_none(PyObject_CallMethodOneArg(s->sim, s_note_failure, state))
                 : hold_egress(r, table, egress)) == 0)
                rc = 0;
            goto done;
        }
    }
    PyObject *stack = get(pkt, P_off[P_route_stack]);
    if (stack == NULL || (record = PyTuple_Pack(2, pdev, plink_obj)) == NULL
        || call_none(PyObject_CallMethodOneArg(stack, s_append, record)) < 0
        || get_ll(pkt, P_off[P_num_flits], &flits) < 0
        || add_ll(pkt, P_off[P_hops], 1) < 0
        || set_ref(pkt, P_off[P_ingress_link], plink_obj) < 0
        || count_link(r->dev, egress, s_tx_packets, s_tx_flits, flits) < 0
        || count_link(peer, plink_obj, s_rx_packets, s_rx_flits, flits) < 0
        || queue_push(prq, pq, n, pkt, s->cycle_obj, 1) < 0
        || add_ll(r->xbar, C_off[C_routed_remote], 1) < 0
        || ((s->live & m_chain_hop)
            && event_call(s, member_chain_hop, r->dev_obj, egress, serial,
                          s_to_dev, pdev, s_to_link, plink_obj) < 0))
        goto done;
    rc = 1;
done:
    Py_XDECREF(routes);
    Py_XDECREF(table);
    Py_XDECREF(hop);
    Py_XDECREF(peer);
    Py_XDECREF(faults);
    Py_XDECREF(sender);
    Py_XDECREF(state);
    Py_XDECREF(status);
    Py_XDECREF(record);
    return rc;
}

/* Queue local *pkt* in *vault*'s request queue: 1 if it went, 0 if the
 * queue is full (a stall), -1 on error. */
static int
route_local(Route *r, PyObject *vault, PyObject *pkt, long long vault_id,
            int local_quad, PyObject *serial)
{
    Stage *s = r->s;
    PyObject *vq, *vqq, *vid = PyLong_FromLongLong(vault_id);
    PyObject *quad = PyLong_FromLongLong(vault_id / 4);
    Py_ssize_t n;
    long long depth;
    int rc = -1;
    if (vault == NULL || vid == NULL || quad == NULL || check_type(vault, vault_type) < 0
        || (vq = queue_of(vault, V_off[V_rqst], &vqq)) == NULL
        || (n = PyObject_Size(vqq)) < 0 || get_ll(vq, Q_off[Q_depth], &depth) < 0)
        ;
    else if (n >= depth)
        rc = add_ll(r->xbar, C_off[C_stall_events], 1) < 0
            || ((s->live & m_rqst_stall)
                && emit_stage(s, ev_rqst_stall, r->dev_obj, r->link_obj, minus_one,
                              vid, serial) < 0) ? -1 : 0;
    /* "Higher latencies are detected due to the physical locality of the
     * queue versus the destination vault" (§IV.C.2). */
    else if ((local_quad
              || (add_ll(r->xbar, C_off[C_latency_events], 1) == 0
                  && (!(s->live & m_latency)
                      || emit_stage(s, ev_latency, r->dev_obj, r->link_obj, quad,
                                    vid, serial) == 0)))
             && queue_push(vq, vqq, n, pkt, s->cycle_obj, 1) == 0
             && add_ll(r->xbar, C_off[C_routed_local], 1) == 0)
        rc = 1;
    Py_XDECREF(vid);
    Py_XDECREF(quad);
    return rc;
}

/* The vault a local *pkt* targets: the MODE vault for MODE packets
 * (never cached), else its address's, decoded once into ``dec_vault``. */
static int
packet_vault(PyObject *pkt, PyObject *amap, int classic, long long vs,
             long long vmask, long long mode_vault, long long *out)
{
    PyObject *cls = get(pkt, P_off[P_cls]), *addr;
    long long a;
    if (cls == cls_mode_read || cls == cls_mode_write) {
        *out = mode_vault;
        return 0;
    }
    if (cls == NULL || get_ll(pkt, P_off[P_dec_vault], out) < 0)
        return -1;
    if (*out >= 0)
        return 0;
    if ((addr = get(pkt, P_off[P_addr])) == NULL
        || (classic ? parse_ll(addr, &a)
            : call_ll(PyObject_CallMethodOneArg(amap, s_vault_of, addr), out)) < 0)
        return -1;
    if (classic)
        *out = (a >> vs) & vmask;
    if (*out < 0) {
        PyErr_SetString(PyExc_ValueError, "negative shift count");
        return -1;
    }
    return set_ll(pkt, P_off[P_dec_vault], *out);
}

/* Whether vault *v* is blocked for the rest of the walk (*set*: block
 * it).  Ids past 63 -- an address map decoding past the structure --
 * go in a set. */
static int
blocked_vault(unsigned long long *mask, PyObject **far, long long v, int set)
{
    if (v < 64) {
        int was = *mask >> v & 1;
        *mask |= (unsigned long long)set << v;
        return was;
    }
    PyObject *id = PyLong_FromLongLong(v);
    int rc = id == NULL ? -1 : !set ? (*far ? PySet_Contains(*far, id) : 0)
        : (*far == NULL && (*far = PySet_New(NULL)) == NULL) ? -1
        : PySet_Add(*far, id);
    Py_XDECREF(id);
    return rc;
}

/* ``CrossbarUnit.route_requests``: route up to ``s->moves`` packets of
 * *xbar*'s request queue on *dev*; the count moved, or -1.
 *
 * Local packets go to their vault's request queue after one transit
 * cycle through the registered input, plus the routed-latency penalty
 * when the ingress link's quad is not the vault's; remote packets go
 * one hop along the chain.  Weak ordering (§III.C): a remote packet may
 * pass local ones waiting for a vault, but local packets to one vault
 * never pass each other.  A held link is offered once per walk. */
static long long
route_xbar(Stage *s, PyObject *xbar, PyObject *dev)
{
    Route r = {.s = s, .xbar = xbar, .dev = dev};
    PyObject *rqst, *q, *stamps = NULL, *vaults = NULL, *amap = NULL, *far = NULL;
    PyObject *it = NULL, *sit = NULL, *pkt = NULL, *stamp = NULL, *cub_obj, *serial;
    Py_ssize_t qlen, small[128], *removed = small, nremoved = 0, num_vaults;
    long long moved = -1, routed = 0, link_id, vs = 0, vmask = 0, cub, when, vid;
    unsigned long long blocked = 0;
    int go;
    if (check_type(xbar, xbar_type) < 0 || check_type(dev, device_type) < 0
        || (rqst = queue_of(xbar, C_off[C_rqst], &q)) == NULL
        || (qlen = PyObject_Size(q)) < 0)
        return -1;
    if (qlen == 0 || s->moves <= 0)
        return 0;
    Py_INCREF(rqst);    /* held across the Python called back */
    if (s->timeout > 0) {
        PyObject *args[] = {xbar, dev, s->sim, s->cycle_obj, s->tracer};
        if (call_none(PyObject_VectorcallMethod(s_expire, args, 5, NULL)) < 0
            || (q = get(rqst, Q_off[Q__q])) == NULL || (qlen = PyObject_Size(q)) < 0)
            goto done;
    }
    if (qlen == 0) {
        moved = 0;
        goto done;
    }
    if ((r.dev_obj = hold(dev, D_off[D_dev_id])) == NULL
        || (r.link_obj = hold(xbar, C_off[C_link_id])) == NULL
        || parse_ll(r.dev_obj, &r.dev_id) < 0 || parse_ll(r.link_obj, &link_id) < 0
        || (stamps = get(rqst, Q_off[Q__stamps])) == NULL
        || (vaults = hold(dev, D_off[D_vaults])) == NULL
        || (amap = get(dev, D_off[D_amap])) == NULL)
        goto done;
    int classic = Py_IS_TYPE(amap, amap_type);
    if ((num_vaults = PyList_Check(vaults) ? PyList_GET_SIZE(vaults) : 65) > 64) {
        PyErr_SetString(PyExc_ValueError, "a device holds a list of at most 64 vaults");
        goto done;
    }
    if (qlen > 128 && (removed = PyMem_New(Py_ssize_t, qlen)) == NULL) {
        removed = small;
        PyErr_NoMemory();
        goto done;
    }
    if ((classic && (attr_ll(amap, s_vs, &vs) < 0 || attr_ll(amap, s_vault_mask, &vmask) < 0))
        || (it = PyObject_GetIter(q)) == NULL || (sit = PyObject_GetIter(stamps)) == NULL)
        goto done;
    /* The ingress link's closest quad has the link's id; MODE packets go
     * to that quad's first vault (§V.D).  With every vault blocked and a
     * map that cannot decode past the structure, the local packets left
     * are unroutable this cycle: the scan only looks for remote ones. */
    long long my_quad = link_id, mode_vault = my_quad * 4;
    unsigned long long all = num_vaults == 64 ? ~0ULL : (1ULL << num_vaults) - 1;
    int skip_ok = classic && mode_vault < num_vaults;
    for (Py_ssize_t pos = 0; (pkt = PyIter_Next(it)) != NULL; pos++) {
        if ((stamp = PyIter_Next(sit)) == NULL || routed >= s->moves)
            break;
        if (pos >= qlen) {
            PyErr_SetString(PyExc_RuntimeError, "crossbar queue grew during its walk");
            goto done;
        }
        if (check_type(pkt, packet_type) < 0 || parse_ll(stamp, &when) < 0
            || (cub_obj = get(pkt, P_off[P_cub])) == NULL || parse_ll(cub_obj, &cub) < 0
            || (serial = get(pkt, P_off[P_serial])) == NULL)
            goto done;
        if (cub != r.dev_id) {
            /* One hop per cycle; a held egress is offered once. */
            go = s->cycle - when >= 1;
            if (go && r.held != NULL)
                go = (go = PySet_Contains(r.held, cub_obj)) < 0 ? -1 : !go;
            if (go > 0)
                go = route_remote(&r, pkt, cub_obj, cub, serial);
        }
        else if (skip_ok && blocked == all && far == NULL)
            go = 0;
        else if (packet_vault(pkt, amap, classic, vs, vmask, mode_vault, &vid) < 0
                 || (go = blocked_vault(&blocked, &far, vid, 0)) < 0)
            go = -1;
        else if (go)
            go = 0;
        else {
            int local_quad = vid < num_vaults && vid >> 2 == my_quad;
            if (s->cycle - when < (local_quad ? 1 : 1 + s->penalty))
                go = 0;     /* not ready: later packets to it must wait */
            else if (vid >= num_vaults)
                /* Decoded past the vault structure: a deliberate
                 * misconfiguration, answered with an error response. */
                go = reject(&r, pkt, err_address) < 0 ? -1 : 1;
            else
                go = route_local(&r, PyList_GetItem(vaults, vid), pkt, vid,
                                 local_quad, serial);
            if (go == 0 && blocked_vault(&blocked, &far, vid, 1) < 0)
                go = -1;
        }
        if (go < 0)
            goto done;
        if (go) {
            removed[nremoved++] = pos;
            routed++;
        }
        Py_CLEAR(pkt);
        Py_CLEAR(stamp);
    }
    if (PyErr_Occurred() || (nremoved && remove_at(rqst, removed, nremoved) < 0))
        goto done;
    moved = routed;
done:
    Py_XDECREF(pkt);
    Py_XDECREF(stamp);
    Py_XDECREF(it);
    Py_XDECREF(sit);
    Py_XDECREF(far);
    Py_XDECREF(r.held);
    Py_XDECREF(r.dev_obj);
    Py_XDECREF(r.link_obj);
    Py_XDECREF(vaults);
    Py_DECREF(rqst);
    if (removed != small)
        PyMem_Free(removed);
    return moved;
}

/* The link a response leaves device *dev_id* on, from its route stack's
 * top record, else (stackless) its ingress link: -1 when not one of the
 * device's *nlinks*.  *pop*: the record is popped as it leaves. */
static int
egress_link(PyObject *pkt, long long dev_id, Py_ssize_t nlinks, long long *link,
            int *pop)
{
    PyObject *stack = get(pkt, P_off[P_route_stack]), *top = NULL;
    Py_ssize_t depth = stack ? PyObject_Size(stack) : -1;
    long long rec_dev = dev_id;
    int rc = depth < 0 ? -1 : depth == 0 ? get_ll(pkt, P_off[P_ingress_link], link)
        : (top = PySequence_GetItem(stack, depth - 1)) == NULL     /* (dev, link) */
          || !PyArg_ParseTuple(top, "LL", &rec_dev, link) ? -1 : 0;
    Py_XDECREF(top);
    *pop = depth > 0;
    if (rc == 0 && (rec_dev != dev_id || *link < 0 || *link >= nlinks))
        *link = -1;
    return rc;
}

/* Take the response at the head of *queue* off it as it leaves: its
 * top route record goes with it. */
static int
leave(PyObject *queue, PyObject *q, PyObject *pkt, int pop)
{
    PyObject *stack = get(pkt, P_off[P_route_stack]);
    Py_ssize_t depth = stack ? PyObject_Size(stack) : -1;
    return depth < 0 || queue_pop(queue, q, 0) < 0
        || (pop && PySequence_DelItem(stack, depth - 1) < 0) ? -1 : 0;
}

/* An unreachable response: dropped (zombie prevention, §V.B) and
 * traced as expired at *link* or *vault*. */
static int
drop_response(Stage *s, PyObject *queue, PyObject *q, PyObject *dev_obj,
              PyObject *link, PyObject *vault, PyObject *serial)
{
    return queue_pop(queue, q, 1) < 0 || add_attr(s->sim, s_dropped, 1) < 0
        || ((s->live & m_expired)
            && emit_stage(s, ev_expired, dev_obj, link, minus_one, vault, serial) < 0)
        ? -1 : 0;
}

/* Move the head of *rsp* (deque *q*), a response on device *dev* (id
 * *dev_id*, *nlinks* links), into the crossbar response queue of the
 * link it leaves on: 1 moved, 0 that queue is full, 2 dropped, -1. */
static int
register_response(Stage *s, PyObject *dev, PyObject *dev_obj, long long dev_id,
                  Py_ssize_t nlinks, PyObject *rsp, PyObject *q, PyObject *vid)
{
    PyObject *pkt = PySequence_GetItem(q, 0), *serial, *link = NULL, *xbar, *xrsp, *xq;
    Py_ssize_t n;
    long long link_id, depth;
    int pop, rc = -1;
    if (pkt == NULL || check_type(pkt, packet_type) < 0
        || (serial = get(pkt, P_off[P_serial])) == NULL
        || egress_link(pkt, dev_id, nlinks, &link_id, &pop) < 0)
        ;
    else if (link_id < 0)
        rc = drop_response(s, rsp, q, dev_obj, minus_one, vid, serial) < 0 ? -1 : 2;
    else if ((link = PyLong_FromLongLong(link_id)) == NULL
             || (xbar = item_of(dev, D_off[D_xbars], link_id, xbar_type)) == NULL
             || (xrsp = queue_of(xbar, C_off[C_rsp], &xq)) == NULL
             || (n = PyObject_Size(xq)) < 0 || get_ll(xrsp, Q_off[Q_depth], &depth) < 0)
        ;
    else if (n >= depth)
        rc = (s->live & m_rsp_stall)
            && emit_stage(s, ev_rsp_stall, dev_obj, link, minus_one, vid, serial) < 0
            ? -1 : 0;
    else
        rc = leave(rsp, q, pkt, pop) < 0
            || queue_push(xrsp, xq, n, pkt, s->cycle_obj, 0) < 0
            || ((s->live & m_registered)
                && emit_stage(s, ev_registered, dev_obj, link, minus_one, vid, serial) < 0)
            ? -1 : 1;
    Py_XDECREF(pkt);
    Py_XDECREF(link);
    return rc;
}

/* One response hop across chain link *lid* of *dev* to device *peer*:
 * 1 if it crossed, 0 if the link's queue waits, 2 if it was dropped,
 * -1 on error.  *state* is the link's in-band gate, or NULL. */
static int
hop_response(Stage *s, PyObject *dev, PyObject *dev_obj, PyObject *lid,
             PyObject *rsp, PyObject *q, PyObject *peer, long long peer_id,
             PyObject *state)
{
    PyObject *pkt = PySequence_GetItem(q, 0), *plinks = get(peer, D_off[D_links]);
    PyObject *serial, *next_obj = NULL, *sender = NULL, *status = NULL, *xbar, *dest, *dq;
    Py_ssize_t nlinks = plinks ? PyObject_Size(plinks) : -1, n;
    long long next, depth, flits;
    int pop, rc = -1;
    if (pkt == NULL || nlinks < 0 || check_type(pkt, packet_type) < 0
        || (serial = get(pkt, P_off[P_serial])) == NULL
        || egress_link(pkt, peer_id, nlinks, &next, &pop) < 0)
        goto done;
    if (next < 0) {
        rc = drop_response(s, rsp, q, dev_obj, lid, minus_one, serial) < 0 ? -1 : 2;
        goto done;
    }
    if ((xbar = item_of(peer, D_off[D_xbars], next, xbar_type)) == NULL
        || (dest = queue_of(xbar, C_off[C_rsp], &dq)) == NULL
        || (n = PyObject_Size(dq)) < 0 || get_ll(dest, Q_off[Q_depth], &depth) < 0)
        goto done;
    if (n >= depth) {
        rc = (s->live & m_rsp_stall)
            && emit_stage(s, ev_rsp_stall, dev_obj, lid, minus_one, minus_one, serial) < 0
            ? -1 : 0;
        goto done;
    }
    if (state != NULL) {
        /* In-band gate: the response hop runs the link retry protocol.
         * A failure keeps it queued for the replay window; a dead link
         * strands it (dropped, tokens leak: the watchdog's deadlock). */
        PyObject *args[] = {state, NULL, pkt, s->cycle_obj, s->tracer};
        if ((sender = args[1] = PyTuple_Pack(2, dev_obj, lid)) == NULL
            || (status = PyObject_VectorcallMethod(s_try_transmit, args, 5, NULL)) == NULL)
            goto done;
        if (status == tx_dead)
            rc = call_none(PyObject_CallMethodOneArg(s->sim, s_note_failure, state)) < 0
                || drop_response(s, rsp, q, dev_obj, lid, minus_one, serial) < 0 ? -1 : 2;
        else if (status != tx_ok)
            rc = 0;
        if (status != tx_ok)
            goto done;
    }
    if (leave(rsp, q, pkt, pop) < 0 || add_ll(pkt, P_off[P_hops], 1) < 0
        || get_ll(pkt, P_off[P_num_flits], &flits) < 0
        || (next_obj = PyLong_FromLongLong(next)) == NULL
        || count_link(dev, lid, s_tx_packets, s_tx_flits, flits) < 0
        || count_link(peer, next_obj, s_rx_packets, s_rx_flits, flits) < 0
        || queue_push(dest, dq, n, pkt, s->cycle_obj, 0) < 0)
        goto done;
    rc = 1;
done:
    Py_XDECREF(pkt);
    Py_XDECREF(next_obj);
    Py_XDECREF(sender);
    Py_XDECREF(status);
    return rc;
}

/* Stage 5's chain half on *dev*: responses in chain-link crossbar
 * response queues hop to the peer device along their recorded return
 * path, up to ``s->moves`` per link, ascending link id.  Host-link
 * queues are not in the active set: the host drains them. */
static long long
cross_chain(Stage *s, PyObject *dev, PyObject *dev_obj)
{
    PyObject *peers = NULL, *faults = NULL, *key = NULL, *peer = NULL, *pdev = NULL;
    PyObject *state = NULL, *rsp, *q, *stamps, *xbar, *first;
    unsigned long long ids;
    long long moved = -1, count = 0, stamp, peer_id;
    int faulty = 0, rc;
    if (act_mask(dev, D_off[D_act_xbar_rsp], &ids) < 0)
        return -1;
    if (ids && ((peers = PyObject_GetAttr(s->sim, s_link_peers)) == NULL
                || (faults = PyObject_GetAttr(s->sim, s_link_faults)) == NULL
                || (faulty = PyObject_IsTrue(faults)) < 0))
        goto done;
    for (; ids; ids &= ids - 1) {
        long long lid = __builtin_ctzll(ids);
        PyObject *lid_obj = PyLong_FromLongLong(lid), *pd, *pl;
        Py_XSETREF(key, lid_obj ? PyTuple_Pack(2, dev_obj, lid_obj) : NULL);
        Py_XDECREF(lid_obj);    /* the key holds it */
        Py_CLEAR(pdev);
        Py_CLEAR(state);
        Py_XSETREF(peer, key ? PyObject_CallMethodOneArg(peers, s_get, key) : NULL);
        if (peer == NULL)
            goto done;
        if (peer == Py_None || PyUnicode_Check(peer))   /* "host" */
            continue;
        if (!PyArg_ParseTuple(peer, "OO", &pd, &pl) || parse_ll(pd, &peer_id) < 0
            || (pdev = PyObject_GetItem(s->devices, pd)) == NULL
            || check_type(pdev, device_type) < 0
            || (xbar = item_of(dev, D_off[D_xbars], lid, xbar_type)) == NULL
            || (rsp = queue_of(xbar, C_off[C_rsp], &q)) == NULL
            || (stamps = get(rsp, Q_off[Q__stamps])) == NULL
            || (faulty && (state = PyObject_CallMethodOneArg(faults, s_get, key)) == NULL))
            goto done;
        if (state == Py_None)
            Py_CLEAR(state);
        rc = 1;
        for (long long k = 0; rc > 0 && k < s->moves; k++) {
            Py_ssize_t len = PyObject_Size(q);
            if (len <= 0 || (first = PySequence_GetItem(stamps, 0)) == NULL) {
                rc = len < 0 || PyErr_Occurred() ? -1 : 0;
                break;
            }
            rc = parse_ll(first, &stamp);
            Py_DECREF(first);
            /* One hop per cycle: same-cycle arrivals wait. */
            if (rc == 0)
                rc = stamp >= s->cycle ? 0
                    : hop_response(s, dev, dev_obj, PyTuple_GET_ITEM(key, 1), rsp, q,
                                   pdev, peer_id, state);
            count += rc == 1;
        }
        if (rc < 0)
            goto done;
    }
    moved = count;
done:
    Py_XDECREF(peers);
    Py_XDECREF(faults);
    Py_XDECREF(key);
    Py_XDECREF(peer);
    Py_XDECREF(pdev);
    Py_XDECREF(state);
    return moved;
}

/* ``route_stage(devices, sim, cycle, order, moves, tracer)``: stage 1
 * or 2, ``route_requests`` on the crossbars of *devices* with queued
 * requests in the link *order*; the packets moved. */
static PyObject *
route_stage(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    Stage s = {0};
    long long moved = 0, m = 0, idx;
    unsigned long long ids;
    if (nargs != 6 || !PyList_Check(args[0]) || !PyList_Check(args[3])) {
        PyErr_SetString(PyExc_TypeError, "route_stage(devices: list, sim, cycle, "
                        "order: list, moves, tracer)");
        return NULL;
    }
    if (stage_begin(&s, args[1], args[2], args[4], args[5]) < 0)
        m = -1;
    for (Py_ssize_t i = 0; m >= 0 && i < PyList_GET_SIZE(args[0]); i++) {
        PyObject *dev = PyList_GET_ITEM(args[0], i), *xbar;
        if (check_type(dev, device_type) < 0
            || act_mask(dev, D_off[D_act_xbar_rqst], &ids) < 0)
            m = -1;
        for (Py_ssize_t j = 0; m >= 0 && ids && j < PyList_GET_SIZE(args[3]); j++) {
            if (parse_ll(PyList_GET_ITEM(args[3], j), &idx) < 0)
                m = -1;
            else if (0 <= idx && idx < 64 && ids >> idx & 1)   /* else empty */
                moved += (m = (xbar = item_of(dev, D_off[D_xbars], idx, xbar_type))
                          ? route_xbar(&s, xbar, dev) : -1) > 0 ? m : 0;
        }
    }
    Py_XDECREF(s.devices);
    return m < 0 ? NULL : PyLong_FromLongLong(moved);
}

/* ``vault_stage(devices, cycle, window, width, busy, row_timing, tracer)``:
 * ``Vault.stage34`` on every vault of *devices* with queued requests,
 * ascending id; (conflicts, issued). */
static PyObject *
vault_stage(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    long long window, width, conflicts = 0, issued = 0, c = 0, i = 0;
    unsigned long long ids;
    if (nargs != 7 || !PyList_Check(args[0])) {
        PyErr_SetString(PyExc_TypeError, "vault_stage(devices: list, cycle, window, "
                        "width, busy, row_timing, tracer)");
        return NULL;
    }
    Walk w = {.cycle_obj = args[1], .busy_obj = args[4], .tracer = args[6]};
    if (parse_ll(args[1], &w.cycle) < 0 || parse_ll(args[2], &window) < 0
        || parse_ll(args[3], &width) < 0 || parse_ll(args[4], &w.busy_cycles) < 0
        || (w.row_timing = row_timing_of(args[5])) == NULL)
        return NULL;
    int rc = 0;
    for (Py_ssize_t d = 0; rc == 0 && d < PyList_GET_SIZE(args[0]); d++) {
        PyObject *dev = PyList_GET_ITEM(args[0], d), *vault;
        rc = check_type(dev, device_type) < 0
            || act_mask(dev, D_off[D_act_vault_rqst], &ids) < 0
            || (w.amap = get(dev, D_off[D_amap])) == NULL
            || (w.dev_obj = get(dev, D_off[D_dev_id])) == NULL ? -1 : 0;
        w.classic = w.amap && Py_IS_TYPE(w.amap, amap_type);
        for (; rc == 0 && ids; ids &= ids - 1, conflicts += c, issued += i)
            rc = (vault = item_of(dev, D_off[D_vaults], __builtin_ctzll(ids), vault_type))
                ? walk_vault(w, vault, window, width, &c, &i) : -1;
    }
    Py_DECREF(w.row_timing);
    return rc < 0 ? NULL : pair(conflicts, issued);
}

/* ``response_stage(devices, sim, cycle, moves, tracer)``: stage 5 over
 * *devices* (roots first, then children: no false congestion), each
 * device's chain-link hops, then up to *moves* responses per vault
 * response queue in ascending vault order; the responses moved. */
static PyObject *
response_stage(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    Stage s = {0};
    long long moved = 0, m = 0, dev_id;
    unsigned long long ids;
    if (nargs != 5 || !PyList_Check(args[0])) {
        PyErr_SetString(PyExc_TypeError,
                        "response_stage(devices: list, sim, cycle, moves, tracer)");
        return NULL;
    }
    if (stage_begin(&s, args[1], args[2], args[3], args[4]) < 0)
        m = -1;
    for (Py_ssize_t i = 0; m >= 0 && i < PyList_GET_SIZE(args[0]); i++) {
        PyObject *dev = PyList_GET_ITEM(args[0], i), *dev_obj, *links, *vault, *rsp, *q, *vid;
        Py_ssize_t nlinks;
        if (check_type(dev, device_type) < 0
            || (dev_obj = hold(dev, D_off[D_dev_id])) == NULL)
            break;
        if (parse_ll(dev_obj, &dev_id) < 0 || (links = get(dev, D_off[D_links])) == NULL
            || (nlinks = PyObject_Size(links)) < 0 || (m = cross_chain(&s, dev, dev_obj)) < 0
            || act_mask(dev, D_off[D_act_vault_rsp], &ids) < 0)
            m = -1;
        for (moved += m; m >= 0 && ids; ids &= ids - 1) {
            vault = item_of(dev, D_off[D_vaults], __builtin_ctzll(ids), vault_type);
            if (vault == NULL
                || (vid = get(vault, V_off[V_vault_id])) == NULL
                || (rsp = queue_of(vault, V_off[V_rsp], &q)) == NULL) {
                m = -1;
                break;
            }
            for (long long k = 0; k < s.moves; k++) {
                Py_ssize_t len = PyObject_Size(q);
                m = len <= 0 ? (len < 0 ? -1 : 0)
                    : register_response(&s, dev, dev_obj, dev_id, nlinks, rsp, q, vid);
                moved += m == 1;
                if (m <= 0)
                    break;
            }
        }
        Py_DECREF(dev_obj);
    }
    Py_XDECREF(s.devices);
    return m < 0 || PyErr_Occurred() ? NULL : PyLong_FromLongLong(moved);
}

static PyObject *
Xbar_route_requests(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *names[] = {"device", "sim", "cycle", "moves", "tracer", NULL};
    PyObject *dev, *sim, *cycle, *moves, *tracer;
    Stage s = {0};
    long long moved = -1;
    if (PyArg_ParseTupleAndKeywords(args, kw, "OOOOO:route_requests", names, &dev, &sim,
                                    &cycle, &moves, &tracer)
        && stage_begin(&s, sim, cycle, moves, tracer) == 0)
        moved = route_xbar(&s, self, dev);
    Py_XDECREF(s.devices);
    return moved < 0 ? NULL : PyLong_FromLongLong(moved);
}

/* -- the host lane: request build, inject, send, poll and drain ----------- */

/* ``a, b, ... = o`` into the *count* new references of *out*. */
static int
unpack(PyObject *o, Py_ssize_t count, PyObject **out)
{
    PyObject *t = PyTuple_CheckExact(o) ? Py_NewRef(o) : PySequence_Tuple(o);
    Py_ssize_t n = t ? PyTuple_GET_SIZE(t) : -1;
    if (n >= 0 && n != count)
        PyErr_Format(PyExc_ValueError, n < count ? "not enough values to unpack (expected "
                     "%zd, got %zd)" : "too many values to unpack (expected %zd)", count, n);
    for (Py_ssize_t i = 0; n == count && i < n; i++)
        out[i] = Py_NewRef(PyTuple_GET_ITEM(t, i));
    Py_XDECREF(t);
    return n == count ? 0 : -1;
}

/* ``d.get(key, dflt)``: a new reference, or NULL. */
static PyObject *
dict_get(PyObject *d, PyObject *key, PyObject *dflt)
{
    PyObject *args[] = {d, key, dflt}, *v;
    if (!PyDict_Check(d))
        return PyObject_VectorcallMethod(s_get, args, 3, NULL);
    v = PyDict_GetItemWithError(d, key);
    return v ? Py_NewRef(v) : PyErr_Occurred() ? NULL : Py_NewRef(dflt);
}

/* Set attribute *name* of *o* to the int *x*. */
static int
set_attr_ll(PyObject *o, PyObject *name, long long x)
{
    PyObject *v = PyLong_FromLongLong(x);
    int rc = v == NULL ? -1 : PyObject_SetAttr(o, name, v);
    Py_XDECREF(v);
    return rc;
}

/* The error raised before a write-back that must not lose it. */
typedef struct { PyObject *type, *value, *tb; } Raised;

static Raised
set_aside(void)
{
    Raised r;
    PyErr_Fetch(&r.type, &r.value, &r.tb);
    return r;
}

/* Raise *r* again unless the write-back (*rc*) raised its own: -1 when
 * an error is set after, else *rc*. */
static int
raise_again(Raised r, int rc)
{
    if (r.type != NULL && rc == 0) {
        PyErr_Restore(r.type, r.value, r.tb);
        return -1;
    }
    Py_XDECREF(r.type);
    Py_XDECREF(r.value);
    Py_XDECREF(r.tb);
    return rc;
}

/* 1 if ``type(o).<name> is cls.<name>``, 0 if not, -1. */
static int
same_method(PyObject *o, PyObject *cls, PyObject *name)
{
    PyObject *a = PyObject_GetAttr((PyObject *)Py_TYPE(o), name);
    PyObject *b = a ? PyObject_GetAttr(cls, name) : NULL;
    int rc = b == NULL ? -1 : a == b;
    Py_XDECREF(a);
    Py_XDECREF(b);
    return rc;
}

/* ``HMCSim._check_alive`` once the simulation was freed. */
static int
check_alive(PyObject *sim)
{
    PyObject *freed = PyObject_GetAttr(sim, s_freed);
    int rc = freed == NULL ? -1 : PyObject_IsTrue(freed);
    Py_XDECREF(freed);
    return rc ? (rc < 0 ? -1 : call_none(PyObject_CallMethodNoArgs(sim, s_check_alive))) : 0;
}

/* ValueError "<what>: <format(v, spec)>" unless 0 <= v <= hi. */
static int
check_field(PyObject *v, long long hi, const char *what, PyObject *spec)
{
    int ok, big;
    long long x = PyLong_CheckExact(v) ? PyLong_AsLongLongAndOverflow(v, &big) : 0;
    PyObject *top = PyLong_CheckExact(v) ? NULL : PyLong_FromLongLong(hi), *text;
    if (PyLong_CheckExact(v))
        ok = x == -1 && PyErr_Occurred() ? -1 : !big && 0 <= x && x <= hi;
    else if ((ok = top ? PyObject_RichCompareBool(zero, v, Py_LE) : -1) > 0)
        ok = PyObject_RichCompareBool(v, top, Py_LE);
    Py_XDECREF(top);
    if (ok == 0 && (text = PyObject_Format(v, spec)) != NULL) {
        PyErr_Format(PyExc_ValueError, "%s: %U", what, text);
        Py_DECREF(text);
    }
    return ok > 0 ? 0 : -1;
}

/* ``build_memrequest(cub, addr, tag, cmd, payload, link)``: a request
 * copied from its command's prototype; the payload's words taken mod
 * 2**64, zero-filled or truncated to the command's, or the prototype's
 * shared zero payload when none is given. */
static PyObject *
build_request(PyObject *cub, PyObject *addr, PyObject *tag, PyObject *cmd,
              PyObject *payload, PyObject *link)
{
    PyObject *proto = NULL, *member, *zeros, *words = NULL, *w = NULL, *pkt = NULL;
    long long v = PyLong_Check(cmd) ? PyLong_AsLongLong(cmd) : -1;
    int given;
    PyErr_Clear();      /* a value past 64 bits is no command either */
    if (packet_type == NULL)
        return PyErr_Format(PyExc_RuntimeError, "build_memrequest before bind()");
    if (0 <= v && v < NCMD)
        proto = request_proto[v];
    if (proto == NULL) {    /* CMD(cmd) raises for no command at all */
        member = Py_IS_TYPE(cmd, cmd_type) ? Py_NewRef(cmd)
            : PyObject_CallOneArg((PyObject *)cmd_type, cmd);
        if (member == NULL)
            return NULL;
        v = PyLong_AsLongLong(member);
        if (0 <= v && v < NCMD && (proto = request_proto[v]) == NULL
            && (w = PyObject_GetAttr(member, s_name)) != NULL) {
            PyErr_Format(PyExc_ValueError, "%S is a response command", w);
            Py_DECREF(w);
        }
        Py_DECREF(member);
        if (proto == NULL)
            return NULL;
    }
    Py_ssize_t need = (zeros = get(proto, P_off[P_payload])) ? PyTuple_GET_SIZE(zeros) : 0, n;
    if (zeros == NULL || (given = PyObject_IsTrue(payload)) < 0)
        return NULL;
    if (!given)
        words = Py_NewRef(zeros);
    else if ((w = PySequence_Fast(payload, "payload words")) != NULL
             && (words = PyTuple_New(need)) != NULL) {
        for (n = 0; n < PySequence_Fast_GET_SIZE(w) || n < need; n++) {
            PyObject *i = n < PySequence_Fast_GET_SIZE(w)
                ? PyNumber_Long(PySequence_Fast_GET_ITEM(w, n)) : Py_NewRef(zero);
            unsigned long long m = i ? PyLong_AsUnsignedLongLongMask(i) : 0;
            Py_XDECREF(i);
            if (i == NULL || PyErr_Occurred()
                || (n < need && (PyTuple_SET_ITEM(words, n, PyLong_FromUnsignedLongLong(m)),
                                 PyTuple_GET_ITEM(words, n) == NULL))) {
                Py_CLEAR(words);
                break;
            }
        }
    }
    Py_XDECREF(w);
    if (words == NULL || check_field(tag, max_tag, "tag out of range", s_empty) < 0
        || check_field(addr, max_adrs, "address out of range", s_hash_x) < 0
        || check_field(cub, max_cub, "cube id out of range", s_empty) < 0
        || (pkt = packet_type->tp_alloc(packet_type, 0)) == NULL) {
        Py_XDECREF(words);
        return NULL;
    }
    for (n = 0; n < packet_nslots; n++)
        SLOT(pkt, packet_all_off[n]) = Py_XNewRef(SLOT(proto, packet_all_off[n]));
    if (set_ref(pkt, P_off[P_cub], cub) < 0 || set_ref(pkt, P_off[P_tag], tag) < 0
        || set_ref(pkt, P_off[P_addr], addr) < 0 || set_new(pkt, P_off[P_payload], words) < 0
        || set_ref(pkt, P_off[P_slid], link) < 0
        || set_new(pkt, P_off[P_route_stack], PyList_New(0)) < 0)
        Py_CLEAR(pkt);
    return pkt;
}

static PyObject *
build_memrequest(PyObject *mod, PyObject *args, PyObject *kw)
{
    static char *names[] = {"cub", "addr", "tag", "cmd", "payload", "link", NULL};
    PyObject *cub, *addr, *tag, *cmd, *payload = Py_None, *link = zero;
    if (!PyArg_ParseTupleAndKeywords(args, kw, "OOOO|OO:build_memrequest", names,
                                     &cub, &addr, &tag, &cmd, &payload, &link))
        return NULL;
    return build_request(cub, addr, tag, cmd, payload, link);
}

/* One call's reads of the simulator. */
typedef struct {
    PyObject *sim, *tracer, *devices, *peers, *faults, *tokens, *clock, *host_cub;
    int faulty, tokened;
} Lane;

static void
lane_end(Lane *l)
{
    PyObject **held[] = {&l->sim, &l->tracer, &l->devices, &l->peers, &l->faults,
                         &l->tokens, &l->clock, &l->host_cub};
    for (int i = 0; i < 8; i++)
        Py_CLEAR(*held[i]);
}

static int
lane_begin(Lane *l, PyObject *sim)
{
    memset(l, 0, sizeof *l);
    l->sim = Py_NewRef(sim);
    if ((l->tracer = PyObject_GetAttr(sim, s_tracer)) && check_type(l->tracer, tracer_type) == 0
        && (l->devices = PyObject_GetAttr(sim, s_devices))
        && (l->peers = PyObject_GetAttr(sim, s_link_peers))
        && (l->faults = PyObject_GetAttr(sim, s_link_faults))
        && (l->faulty = PyObject_IsTrue(l->faults)) >= 0
        && (l->tokens = PyObject_GetAttr(sim, s_tokens))
        && (l->tokened = PyObject_IsTrue(l->tokens)) >= 0
        && (l->clock = PyObject_GetAttr(sim, s_clock_value)))
        return 0;
    lane_end(l);
    return -1;
}

/* TopologyError unless the peer of lane *key*, (*dev*, *link*), is the
 * host. */
static int
host_peer(Lane *l, PyObject *key, PyObject *dev, PyObject *link)
{
    PyObject *peer = dict_get(l->peers, key, Py_None);
    int host = peer && PyUnicode_Check(peer) && !PyUnicode_CompareWithASCIIString(peer, "host");
    if (peer && !host)
        PyErr_Format(exc_topology, "dev %S link %S is not attached to the host", dev, link);
    Py_XDECREF(peer);
    return host ? 0 : -1;
}

/* The crossbar of lane (*dev*, *link*), the device in *device*: new
 * references, or NULL. */
static PyObject *
lane_xbar(Lane *l, PyObject *dev, PyObject *link, PyObject **device)
{
    PyObject *xbars, *xbar = NULL;
    if ((*device = PyObject_GetItem(l->devices, dev)) && check_type(*device, device_type) == 0
        && (xbars = get(*device, D_off[D_xbars])) && (xbar = PyObject_GetItem(xbars, link))
        && check_type(xbar, xbar_type) == 0)
        return xbar;
    Py_CLEAR(*device);
    Py_XDECREF(xbar);
    return NULL;
}

/* Drop the references of *objs*. */
static void
drop(PyObject *const *objs, int n)
{
    for (int i = 0; i < n; i++)
        Py_XDECREF(objs[i]);
}

static const char *const stall_text[] = {
    "crossbar request queue full on dev %S link %S",
    "link tokens exhausted on dev %S link %S",
    "link %S on dev %S in retry/replay window",
};

/* ``HMCSim.send``'s host-link lane for *pkt* (numbered already) at
 * (*dev*, *link*): the peer check, the room check, the link tokens, the
 * in-band gate and the push.  1 queued; 0 stalled, counted (*why* says
 * where: a replay window stalls like a full queue); -1 with the error
 * set, ``LinkDeadError`` for a dead link.  The route stack starts from
 * *lane*, or from a new (dev, link) record. */
static int
lane_send(Lane *l, PyObject *pkt, PyObject *dev, PyObject *link, PyObject *lane, int *why)
{
    PyObject *key = lane ? Py_NewRef(lane) : PyTuple_Pack(2, dev, link), *device = NULL;
    PyObject *xbar = NULL, *tokens = NULL, *state = NULL, *status = NULL, *r = NULL;
    PyObject *flits, *rq, *q, *config, *held = NULL, *tkey = NULL;
    Py_ssize_t n;
    long long depth, nflits;
    int rc = -1, ok = 1;
    if (key == NULL || host_peer(l, key, dev, link) < 0
        || (xbar = lane_xbar(l, dev, link, &device)) == NULL
        || (rq = queue_of(xbar, C_off[C_rqst], &q)) == NULL
        || (n = PyObject_Size(q)) < 0 || get_ll(rq, Q_off[Q_depth], &depth) < 0
        || (flits = get(pkt, P_off[P_num_flits])) == NULL || parse_ll(flits, &nflits) < 0
        || (tokens = l->tokened ? dict_get(l->tokens, key, Py_None) : Py_NewRef(Py_None)) == NULL
        || (state = l->faulty ? dict_get(l->faults, key, Py_None) : Py_NewRef(Py_None)) == NULL)
        goto done;
    if ((*why = 0, n >= depth)
        || (*why = 1, tokens != Py_None
            && (ok = (r = PyObject_CallMethodOneArg(tokens, s_can_send, flits))
                ? PyObject_IsTrue(r) : -1) <= 0))
        goto stall;
    if (state != Py_None) {
        PyObject *args[] = {state, host_sender, pkt, l->clock, l->tracer};
        if ((status = PyObject_VectorcallMethod(s_try_transmit, args, 5, NULL)) == tx_dead) {
            PyObject *dead[] = {l->sim, state, dev, link};
            Py_SETREF(status, PyObject_VectorcallMethod(s_link_dead, dead, 4, NULL));
            if (status != NULL)
                PyErr_SetObject((PyObject *)Py_TYPE(status), status);
        }
        if (status == NULL || PyErr_Occurred())
            goto done;
        if ((*why = 2, status != tx_ok))
            goto stall;
    }
    if (tokens != Py_None) {    /* posted traffic returns its credit at once */
        ok = call_none(PyObject_CallMethodOneArg(tokens, s_consume, flits)) < 0 ? -1
            : PyObject_IsTrue(get(pkt, P_off[P_expects_response]));
        if (ok < 0 || (ok ? (held = PyObject_GetAttr(l->sim, s_outstanding)) == NULL
                       || (tkey = PyTuple_Pack(3, dev, link, get(pkt, P_off[P_tag]))) == NULL
                       || PyObject_SetItem(held, tkey, flits) < 0
                       : call_none(PyObject_CallMethodOneArg(tokens, s_restore, flits)) < 0))
            goto done;
    }
    if (l->host_cub == NULL && (config = PyObject_GetAttr(l->sim, s_config)) != NULL) {
        l->host_cub = PyObject_GetAttr(config, s_host_cub);
        Py_DECREF(config);
    }
    if (l->host_cub == NULL || set_ref(pkt, P_off[P_injected_at], l->clock) < 0
        || set_ref(pkt, P_off[P_ingress_link], link) < 0
        || set_ref(pkt, P_off[P_src_cub], l->host_cub) < 0
        || set_new(pkt, P_off[P_route_stack], PyList_New(1)) < 0)
        goto done;
    PyList_SET_ITEM(SLOT(pkt, P_off[P_route_stack]), 0, Py_NewRef(key));
    rc = count_link(device, link, s_rx_packets, s_rx_flits, nflits) < 0
        || queue_push(rq, q, n, pkt, l->clock, 1) < 0
        || add_attr(l->sim, s_packets_sent, 1) < 0 ? -1 : 1;
    goto done;
stall:
    rc = ok < 0 ? -1 : add_attr(l->sim, s_send_stalls, 1) < 0 ? -1 : 0;
done:
    drop((PyObject *[]){key, device, xbar, tokens, state, status, r, held, tkey}, 9);
    return rc;
}

/* ``host_send(sim, pkt, dev, link)``: ``lane_send``, a stall raised as
 * StallError. */
static PyObject *
host_send(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    Lane l;
    int rc = -1, why;
    if (nargs != 4 || check_type(args[1], packet_type) < 0 || lane_begin(&l, args[0]) < 0)
        return nargs != 4 ? PyErr_Format(PyExc_TypeError, "host_send(sim, pkt, dev, link)") : NULL;
    if ((rc = lane_send(&l, args[1], args[2], args[3], NULL, &why)) == 0)
        PyErr_Format(exc_stall, stall_text[why], args[why == 2 ? 3 : 2], args[why == 2 ? 2 : 3]);
    lane_end(&l);
    return rc > 0 ? Py_NewRef(Py_None) : NULL;
}

/* Lane (*d*, *k*) of a delivery poll: 1 with the response popped into
 * *out*, 0 when none crosses now, -1.  With *key*, the partitioned
 * host's peer check first.  Delivery crosses the link in-band: a failed
 * transmission keeps the response queued for the replay window, a dead
 * link strands it. */
static int
poll_lane(Lane *l, PyObject *key, PyObject *d, PyObject *k, PyObject **out)
{
    PyObject *device, *xbar = lane_xbar(l, d, k, &device), *rsp, *q, *serial;
    PyObject *lane = NULL, *state = NULL, *health = NULL, *sender = NULL, *head = NULL;
    PyObject *status = NULL, *pkt = NULL, *tokens = NULL, *tkey = NULL, *flits = NULL;
    Py_ssize_t len;
    long long nflits, mask;
    int rc = -1;
    if (xbar == NULL || (rsp = queue_of(xbar, C_off[C_rsp], &q)) == NULL
        || (len = PyObject_Size(q)) < 0)
        goto done;
    if ((rc = len == 0 ? 0 : -1) == 0 || (key && host_peer(l, key, d, k) < 0)
        || ((l->faulty || l->tokened) && (lane = PyTuple_Pack(2, d, k)) == NULL)
        || (state = l->faulty ? dict_get(l->faults, lane, Py_None) : Py_NewRef(Py_None)) == NULL)
        goto done;
    if (state != Py_None) {
        PyObject *args[] = {state, NULL, NULL, l->clock, l->tracer};
        if ((health = PyObject_GetAttr(state, s_health)) == NULL || (rc = 0, health == health_failed)
            || (rc = -1, sender = args[1] = PyTuple_Pack(2, d, k)) == NULL
            || (head = args[2] = PySequence_GetItem(q, 0)) == NULL
            || (status = PyObject_VectorcallMethod(s_try_transmit, args, 5, NULL)) == NULL)
            goto done;
        if (status != tx_ok) {
            rc = status != tx_dead ? 0
                : call_none(PyObject_CallMethodOneArg(l->sim, s_note_failure, state));
            goto done;
        }
    }
    if ((pkt = queue_take(rsp, q, 1)) == NULL || check_type(pkt, packet_type) < 0
        || set_ref(pkt, P_off[P_completed_at], l->clock) < 0
        || set_new(pkt, P_off[P_delivered_from], PyTuple_Pack(2, d, k)) < 0
        || get_ll(pkt, P_off[P_num_flits], &nflits) < 0
        || count_link(device, k, s_tx_packets, s_tx_flits, nflits) < 0
        || add_attr(l->sim, s_packets_received, 1) < 0
        || (l->tokened && (tokens = dict_get(l->tokens, lane, Py_None)) == NULL))
        goto done;
    if (tokens != NULL && tokens != Py_None) {  /* the request's FLITs come back */
        PyObject *held = PyObject_GetAttr(l->sim, s_outstanding);
        PyObject *args[] = {held, tkey = PyTuple_Pack(3, d, k, get(pkt, P_off[P_tag])), zero};
        int some = held && tkey && (flits = PyObject_VectorcallMethod(s_pop, args, 3, NULL))
            ? PyObject_IsTrue(flits) : -1;
        Py_XDECREF(held);
        if (some < 0 || (some && call_none(PyObject_CallMethodOneArg(tokens, s_restore, flits)) < 0))
            goto done;
    }
    if (get_ll(l->tracer, T_off[T_live_mask], &mask) < 0 || (serial = get(pkt, P_off[P_serial])) == NULL
        || ((mask & m_delivered) && trace_append(l->tracer, PyTuple_Pack(
                10, ev_delivered, l->clock, d, k, minus_one, minus_one, minus_one, minus_one,
                serial, Py_None)) < 0))
        goto done;
    *out = Py_NewRef(pkt);
    rc = 1;
done:
    drop((PyObject *[]){device, xbar, lane, state, health, sender, head, status, pkt, tokens,
                        tkey, flits}, 12);
    return rc;
}

/* The delivery poll: pop the first head response of the *n* lanes of
 * *links*, scanned from *rotor* on, that crosses now.  A new reference,
 * None when none does, or NULL. */
static PyObject *
lane_poll(Lane *l, PyObject *links, Py_ssize_t n, Py_ssize_t rotor, PyObject *key)
{
    PyObject *out = NULL, *lane, *pair[2];
    for (Py_ssize_t i = rotor; i < rotor + n; i++) {
        int rc = (lane = PySequence_GetItem(links, i >= n ? i - n : i)) == NULL ? -1
            : unpack(lane, 2, pair);
        Py_XDECREF(lane);
        if (rc == 0) {
            rc = poll_lane(l, key, pair[0], pair[1], &out);
            Py_DECREF(pair[0]);
            Py_DECREF(pair[1]);
        }
        if (rc != 0)
            return rc < 0 ? NULL : out;
    }
    return Py_NewRef(Py_None);
}

/* ``host_poll(sim, links, n, rotor)``: ``HMCSim.recv``'s poll. */
static PyObject *
host_poll(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t n = nargs == 4 ? PyNumber_AsSsize_t(args[2], NULL) : -1;
    Py_ssize_t rotor = nargs == 4 ? PyNumber_AsSsize_t(args[3], NULL) : -1;
    PyObject *pkt = NULL;
    Lane l;
    if (nargs != 4)
        PyErr_SetString(PyExc_TypeError, "host_poll(sim, links, n, rotor)");
    if (PyErr_Occurred() || lane_begin(&l, args[0]) < 0)
        return NULL;
    pkt = lane_poll(&l, args[1], n, rotor, NULL);
    lane_end(&l);
    return pkt;
}

/* ``HMCSim.recv_all``: the poll ``recv()`` makes, repeated until one
 * finds nothing -- the rotor advancing once per poll, the terminal empty
 * one included.  A new list. */
static PyObject *
host_recv_all(PyObject *mod, PyObject *sim)
{
    PyObject *links, *out = NULL, *pkt;
    long long rotor;
    Py_ssize_t n = -1;
    Lane l;
    if (check_alive(sim) < 0 || (links = PyObject_GetAttr(sim, s_host_links)) == NULL)
        return NULL;
    if ((n = PyObject_Size(links)) == 0)
        PyErr_SetString(exc_topology, "no host link configured");
    if (n > 0 && attr_ll(sim, s_recv_rotor, &rotor) == 0 && lane_begin(&l, sim) == 0) {
        for (out = PyList_New(0); out != NULL; Py_XDECREF(pkt)) {
            Py_ssize_t r = (Py_ssize_t)(((rotor % n) + n) % n);  /* stale after growth */
            rotor = r + 1 < n ? r + 1 : 0;
            if ((pkt = lane_poll(&l, links, n, r, NULL)) == Py_None) {
                Py_DECREF(pkt);
                break;
            }
            if (pkt == NULL || PyList_Append(out, pkt) < 0)
                Py_CLEAR(out);
        }
        Raised r = set_aside();
        if (raise_again(r, set_attr_ll(sim, s_recv_rotor, rotor)) < 0)
            Py_CLEAR(out);
        lane_end(&l);
    }
    Py_DECREF(links);
    return out;
}

/* What the host module hands its calls: ``(PendingRequest, HMCSim,
 * LinkPolicy.ROUND_ROBIN, end of stream)``. */
typedef struct {
    PyObject *pending, *hmcsim, *round_robin, *end;
} HostKinds;

static int
host_kinds(PyObject *o, HostKinds *k)
{
    Py_ssize_t off[R_N];
    if (!PyArg_ParseTuple(o, "O!OOO", &PyType_Type, &k->pending, &k->hmcsim,
                          &k->round_robin, &k->end))
        return -1;
    for (int i = 0; (PyTypeObject *)k->pending != pending_type && i < R_N; i++)
        if ((off[i] = slot_offset((PyTypeObject *)k->pending, R_names[i])) < 0)
            return -1;
    if ((PyTypeObject *)k->pending != pending_type) {
        memcpy(R_off, off, sizeof off);
        Py_XSETREF(pending_type, (PyTypeObject *)Py_NewRef(k->pending));
    }
    return 0;
}

/* ``TagPool.release(tag)``. */
static int
release_tag(PyObject *pool, PyObject *tag)
{
    PyObject *bound = PyObject_GetAttr(pool, s_bound), *free = NULL, *ctx = NULL;
    int rc = bound == NULL || (ctx = PyObject_CallMethodOneArg(bound, s_pop, tag)) == NULL
        || (free = PyObject_GetAttr(pool, s_free)) == NULL
        || call_none(PyObject_CallMethodOneArg(free, s_append, tag)) < 0
        || add_attr(pool, s_released, 1) < 0 ? -1 : 0;
    Py_XDECREF(bound);
    Py_XDECREF(ctx);
    Py_XDECREF(free);
    return rc;
}

/* One ``Host._inject`` call. */
typedef struct {
    Lane l;
    HostKinds k;
    PyObject *host, *cub, *pools, *links, *last;
    long long rotor, sent;
    int round_robin, inline_lane;
} Burst;

/* Inject request *item*: 1 sent, 0 held (no free tag, or a stall), -1.
 * In order: pick a link, take a tag (none free: stop before building),
 * build the packet, inject.  The packet takes the simulation's next
 * serial before the room check: a stalled injection has taken one, and
 * returns its tag to the back of the free list.  The inlined lane is
 * ``lane_send``; otherwise it is a call of ``sim.send``. */
static int
inject_one(Burst *b, PyObject *item)
{
    PyObject *f[3], *pair[2] = {NULL, NULL}, *lane = NULL, *pool = NULL, *tag = NULL;
    PyObject *free = NULL, *ctx = NULL, *bound = NULL, *pkt = NULL, *r, *dead, *left;
    Py_ssize_t n = -1, i;
    int rc = -1, posted = 0, why;
    if (unpack(item, 3, f) < 0)
        return -1;
    PyObject *pick[] = {b->host, b->cub, f[1]};
    long long v = PyLong_Check(f[0]) ? PyLong_AsLongLong(f[0]) : -1;
    PyErr_Clear();
    if (!b->round_robin)
        lane = PyObject_VectorcallMethod(s_pick_link, pick, 3, NULL);
    else if ((n = PyList_GET_SIZE(b->links)) == 0)
        PyErr_SetString(PyExc_ZeroDivisionError, "integer modulo by zero");
    else
        lane = Py_NewRef(PyList_GET_ITEM(b->links, ((b->rotor++ % n) + n) % n));
    if (lane == NULL || unpack(lane, 2, pair) < 0
        || (pool = PyObject_GetItem(b->pools, lane)) == NULL
        || (posted = 0 <= v && v < NCMD ? posted_cmd[v] : PySet_Contains(posted_set, f[0])) < 0)
        goto done;
    PyObject *fields[] = {f[0], f[1], pair[0], pair[1], b->l.clock};
    if (posted)
        tag = Py_NewRef(zero);
    else if ((free = PyObject_GetAttr(pool, s_free)) == NULL || (n = PyObject_Size(free)) <= 0
             || (tag = PyObject_CallMethodNoArgs(free, s_popleft)) == NULL
             || (ctx = pending_type->tp_alloc(pending_type, 0)) == NULL) {
        rc = n == 0 ? 0 : -1;
        goto done;
    }
    for (i = 0; ctx != NULL && i < R_N; i++)
        SLOT(ctx, R_off[i]) = Py_NewRef(fields[i]);
    if (ctx != NULL && ((bound = PyObject_GetAttr(pool, s_bound)) == NULL
                        || PyObject_SetItem(bound, tag, ctx) < 0
                        || add_attr(pool, s_allocated, 1) < 0))
        goto done;
    if ((pkt = build_request(b->cub, f[1], tag, f[0], f[2], pair[1])) == NULL)
        rc = -1;
    else if (b->inline_lane)
        rc = take_serial(pkt, b->l.tracer) < 0 ? -1
            : lane_send(&b->l, pkt, pair[0], pair[1], lane, &why);
    else {
        PyObject *args[] = {b->l.sim, pkt, pair[0], pair[1]};
        rc = (r = PyObject_VectorcallMethod(s_send, args, 2, send_kw)) == NULL ? -1 : 1;
        Py_XDECREF(r);
    }
    if (rc < 0 && PyErr_ExceptionMatches(exc_stall)) {
        PyErr_Clear();
        rc = 0;
    }
    else if (rc < 0 && PyErr_ExceptionMatches(exc_dead)) {
        /* Fail over to the surviving host links.  Requests outstanding on
         * the dead one are stranded (the engine watchdog turns that into
         * a typed abort when armed); with no survivor the error stays. */
        Raised dead_link = set_aside();
        left = (dead = PyTuple_Pack(2, pair[0], pair[1])) ? PyList_New(0) : NULL;
        for (i = 0; left && i < PyList_GET_SIZE(b->links); i++)
            if ((rc = PyObject_RichCompareBool(PyList_GET_ITEM(b->links, i), dead, Py_NE)) < 0
                || (rc && PyList_Append(left, PyList_GET_ITEM(b->links, i)) < 0))
                Py_CLEAR(left);
        Py_XDECREF(dead);
        if (left == NULL || PyObject_SetAttr(b->host, s_host_links, left) < 0) {
            Py_XDECREF(left);
            rc = raise_again(dead_link, -1);
        }
        else {
            Py_SETREF(b->links, left);
            rc = PyList_GET_SIZE(left) ? raise_again(dead_link, 1) - 1 : raise_again(dead_link, 0);
        }
    }
    /* The builder and the send raise before queueing, so on any failure
     * the tag goes back: a leaked tag holds ``outstanding`` above zero
     * and a draining run() never ends. */
    if (rc <= 0 && !posted) {
        Raised failed = set_aside();
        rc = raise_again(failed, release_tag(pool, tag)) < 0 ? -1 : rc;
    }
    if (rc > 0) {
        b->sent++;
        Py_XSETREF(b->last, PyTuple_Pack(3, pair[0], pair[1], tag));
        rc = b->last ? 1 : -1;
    }
done:
    drop((PyObject *[]){f[0], f[1], f[2], pair[0], pair[1], lane, pool, tag, free, ctx, bound,
                        pkt}, 12);
    return rc;
}

/* ``host_inject(host, item, more, cub, kinds)``: ``Host._inject``.  Send
 * *item*, then items from *more*, until one cannot go: (sent, held).
 * The inlined lane runs when the simulator has no link tokens and its
 * own ``HMCSim.send``. */
static PyObject *
host_inject(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *sim, *item, *more, *next = NULL, *out = NULL, *policy = NULL, *freed = NULL;
    Burst b;
    long long rotor = 0;
    int rc = -1, dead;
    if (nargs != 5)
        return PyErr_Format(PyExc_TypeError, "host_inject(host, item, more, cub, kinds)");
    b = (Burst){.host = args[0], .cub = args[3]};
    if (host_kinds(args[4], &b.k) < 0 || (sim = PyObject_GetAttr(b.host, s_sim)) == NULL)
        return NULL;
    rc = lane_begin(&b.l, sim);
    Py_DECREF(sim);
    if (rc < 0)
        return NULL;
    more = args[2];
    if ((b.pools = PyObject_GetAttr(b.host, s_tag_pools)) && (policy = PyObject_GetAttr(b.host, s_policy))
        && (freed = PyObject_GetAttr(b.l.sim, s_freed)) && (dead = PyObject_IsTrue(freed)) >= 0
        && (b.inline_lane = same_method(b.l.sim, b.k.hmcsim, s_send)) >= 0
        && (b.links = PyObject_GetAttr(b.host, s_host_links))
        && ((b.round_robin = policy == b.k.round_robin) == 0
            || attr_ll(b.host, s_rotor, &rotor) == 0)) {
        b.inline_lane = b.inline_lane && !dead && !b.l.tokened;
        b.rotor = rotor;
        if (!PyList_Check(b.links))
            PyErr_SetString(PyExc_TypeError, "Host._host_links must be a list");
        else if (more != Py_None && !PyIter_Check(more))
            PyErr_Format(PyExc_TypeError, "'%.200s' object is not an iterator",
                         Py_TYPE(more)->tp_name);
    }
    Py_XDECREF(policy);
    Py_XDECREF(freed);
    rc = PyErr_Occurred() ? -1 : 0;
    item = Py_NewRef(args[1]);
    while (rc == 0 && item != Py_None && item != b.k.end && (rc = inject_one(&b, item)) > 0) {
        next = more == Py_None ? Py_NewRef(b.k.end) : PyIter_Next(more);
        if (next == NULL && !PyErr_Occurred())
            next = Py_NewRef(b.k.end);
        rc = next == NULL ? -1 : 0;
        if (next != NULL)
            Py_SETREF(item, next);
    }
    /* What the burst moved: the rotor, ``sent`` and ``last_send``. */
    Raised failed = set_aside();
    rc = raise_again(failed, (b.round_robin && b.rotor != rotor
                              && set_attr_ll(b.host, s_rotor, b.rotor) < 0)
                     || (b.sent && add_attr(b.host, s_sent, b.sent) < 0)
                     || (b.last && PyObject_SetAttr(b.host, s_last_send, b.last) < 0) ? -1 : 0);
    lane_end(&b.l);
    if (rc == 0)
        out = Py_BuildValue("(LO)", b.sent, item);
    drop((PyObject *[]){b.pools, b.links, b.last, item}, 4);
    return out;
}

/* The drain's bookkeeping for response *rsp*: its tag back to its pool,
 * its latency and its error status.  The host's ``errors`` counts error
 * responses and responses to no tag it holds (e.g. after a restart). */
static int
settle(Lane *l, PyObject *host, PyObject *rsp, PyObject *pools, PyObject *latencies,
       PyObject *error_stats)
{
    PyObject *from, *tag, *errstat, *cmd, *pool = NULL, *bound = NULL, *ctx = NULL;
    PyObject *code = NULL, *count = NULL, *sent = NULL, *lat = NULL;
    int rc = -1, known = 0, failed;
    if (check_type(rsp, packet_type) < 0 || (from = get(rsp, P_off[P_delivered_from])) == NULL
        || (tag = get(rsp, P_off[P_tag])) == NULL || (pool = dict_get(pools, from, Py_None)) == NULL
        || (pool != Py_None && ((bound = PyObject_GetAttr(pool, s_bound)) == NULL
                                || (known = PySequence_Contains(bound, tag)) < 0))
        || (!known && (rc = add_attr(host, s_errors, 1), 1))
        || (ctx = PyObject_GetItem(bound, tag)) == NULL || release_tag(pool, tag) < 0
        || (errstat = get(rsp, P_off[P_errstat])) == NULL || (cmd = get(rsp, P_off[P_cmd])) == NULL
        || (failed = errstat != err_ok ? 1 : PyLong_CheckExact(cmd) || Py_IS_TYPE(cmd, cmd_type)
            ? PyLong_AsLongLong(cmd) == cmd_error
            : PyObject_RichCompareBool(cmd, cmd_error_obj, Py_EQ)) < 0 || PyErr_Occurred())
        goto done;
    if (failed && (add_attr(host, s_errors, 1) < 0 || (code = PyNumber_Long(errstat)) == NULL
                   || (sent = dict_get(error_stats, code, zero)) == NULL
                   || (count = PyNumber_Add(sent, one)) == NULL
                   || PyObject_SetItem(error_stats, code, count) < 0))
        goto done;
    Py_CLEAR(sent);
    if (ctx != Py_None
        && ((sent = Py_IS_TYPE(ctx, pending_type) ? hold(ctx, R_off[R_sent_cycle])
             : PyObject_GetAttr(ctx, s_sent_cycle)) == NULL
            || (lat = PyNumber_Subtract(l->clock, sent)) == NULL
            || (PyList_CheckExact(latencies) ? PyList_Append(latencies, lat)
                : call_none(PyObject_CallMethodOneArg(latencies, s_append, lat))) < 0))
        goto done;
    rc = 0;
done:
    drop((PyObject *[]){pool, bound, ctx, code, count, sent, lat}, 7);
    return rc;
}

/* ``host_drain(host, kinds)``: ``Host.drain_responses``.  Receive every
 * pending response -- a partitioned host polls only its own lanes, as
 * ``recv(dev=, link=)`` polls one, so co-resident hosts never steal each
 * other's -- and settle each. */
static PyObject *
host_drain(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *sim, *part = NULL, *out = NULL, *pools = NULL, *lats = NULL, *stats = NULL;
    PyObject *it = NULL, *rsp, *links = NULL, *lane, *lanes, *pkt;
    Py_ssize_t n;
    int own = -1, rc = -1;
    HostKinds k;
    Lane l;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "host_drain(host, kinds)");
    if (host_kinds(args[1], &k) < 0 || (sim = PyObject_GetAttr(args[0], s_sim)) == NULL)
        return NULL;
    rc = lane_begin(&l, sim);
    Py_DECREF(sim);
    if (rc < 0)
        return NULL;
    if ((part = PyObject_GetAttr(args[0], s_partitioned)) && (own = PyObject_IsTrue(part)) > 0
        && check_alive(l.sim) == 0 && (links = PyObject_GetAttr(args[0], s_host_links))
        && (it = PyObject_GetIter(links)))
        for (out = PyList_New(0); out != NULL && (lane = PyIter_Next(it)) != NULL; Py_DECREF(lane)) {
            if ((lanes = PyTuple_Pack(1, lane)) == NULL)
                Py_CLEAR(out);
            while (lanes != NULL && out != NULL) {
                if ((pkt = lane_poll(&l, lanes, 1, 0, lane)) == NULL || pkt == Py_None
                    || PyList_Append(out, pkt) < 0) {
                    if (pkt != Py_None)     /* else empty, or held by a replay window */
                        Py_CLEAR(out);
                    Py_XDECREF(pkt);
                    break;
                }
                Py_DECREF(pkt);
            }
            Py_XDECREF(lanes);
        }
    else if (own == 0 && (own = same_method(l.sim, k.hmcsim, s_recv_all)) >= 0)
        out = own ? host_recv_all(NULL, l.sim) : PyObject_CallMethodNoArgs(l.sim, s_recv_all);
    Py_CLEAR(it);
    rc = -1;
    if (out != NULL && !PyErr_Occurred() && (n = PyObject_Size(out)) >= 0
        && add_attr(args[0], s_received, n) == 0
        && (pools = PyObject_GetAttr(args[0], s_tag_pools))
        && (lats = PyObject_GetAttr(args[0], s_latencies))
        && (stats = PyObject_GetAttr(args[0], s_error_stats)) && (it = PyObject_GetIter(out)))
        for (rc = 0; rc == 0 && (rsp = PyIter_Next(it)) != NULL; Py_DECREF(rsp))
            rc = settle(&l, args[0], rsp, pools, lats, stats);
    if (rc < 0)
        Py_CLEAR(out);
    lane_end(&l);
    drop((PyObject *[]){part, pools, lats, stats, it, links}, 6);
    return out;
}

/* -- binding -------------------------------------------------------------- */

static PyMethodDef bank_defs[] = {
    {"read", (PyCFunction)(void (*)(void))Bank_read, METH_FASTCALL,
     "read(byte_addr, nbytes)\n--\n\n"
     "Read *nbytes* from bank-relative *byte_addr* as 64-bit words."},
    {"write", (PyCFunction)(void (*)(void))Bank_write, METH_FASTCALL,
     "write(byte_addr, words)\n--\n\n"
     "Write 64-bit *words* (two per atom, taken mod 2**64) at\n"
     "bank-relative *byte_addr*."},
    {"_materialize", (PyCFunction)Bank_materialize, METH_O,
     "_materialize(pg)\n--\n\n"
     "Give page *pg* the next (zeroed) row of the store and return it.\n"
     "The store starts as one row and doubles when full."},
    {NULL, NULL, 0, NULL},
};

static PyMethodDef vault_defs[] = {
    {"stage34", (PyCFunction)(void (*)(void))Vault_stage34,
     METH_VARARGS | METH_KEYWORDS,
     "stage34(cycle, amap, window, issue_width, bank_busy_cycles, tracer, "
     "dev_id, row_timing=None)\n--\n\n"
     "Recognise bank conflicts, then issue requests: one queue walk.\n\n"
     "Stage 3 (paper IV.C.3) is read-only: it traces a conflict when a\n"
     "packet among the first *window* targets a bank that an earlier\n"
     "windowed packet also targets, or a bank still busy.  Stage 4\n"
     "(IV.C.4) retires up to *issue_width* requests in FIFO order; a\n"
     "packet issues when its bank is free and no earlier queued packet\n"
     "targets the same bank, and a packet needing a reply stalls in\n"
     "place while the vault response queue is full.  window=0 or\n"
     "issue_width=0 runs one half alone.  *row_timing*, when given, is\n"
     "(hit_cycles, miss_cycles) and selects open-row bank timing.\n"
     "Returns (conflicts, issued)."},
    {"_busy_state", (PyCFunction)(void (*)(void))Vault_busy_state, METH_FASTCALL,
     "_busy_state(cycle)\n--\n\n"
     "Exact busy-bank bitmask at *cycle*, re-validated only once the\n"
     "vault's next-free horizon has passed."},
    {"_push_response", (PyCFunction)(void (*)(void))Vault_push_response,
     METH_FASTCALL,
     "_push_response(rsp, request, cycle, tracer)\n--\n\n"
     "Queue *rsp* as *request*'s reply, numbered with the tracer's\n"
     "``next_serial``; the caller checked for room.\n"
     "Returns the slots taken (1)."},
    {NULL, NULL, 0, NULL},
};

static PyMethodDef queue_defs[] = {
    {"remove_positions", (PyCFunction)Queue_remove_positions, METH_O,
     "remove_positions(positions)\n--\n\n"
     "Remove the entries at ascending FIFO *positions* in one pass.\n\n"
     "FIFO order of the survivors is preserved; removed entries count\n"
     "as dequeued (the same accounting as ``pop``)."},
    {NULL, NULL, 0, NULL},
};

static PyMethodDef tracer_defs[] = {
    {"emit_fast", (PyCFunction)(void (*)(void))Tracer_emit_fast, METH_FASTCALL,
     "emit_fast(etype, cycle, dev=-1, link=-1, quad=-1, vault=-1, bank=-1, "
     "stage=-1, serial=-1, extra=None)\n--\n\n"
     "Buffer one event as a compact tuple (hot call sites), positional\n"
     "arguments only.  Callers have tested ``live_mask & etype``: no mask\n"
     "test, no TraceEvent.  Flushes once the buffer holds ``_limit``."},
    {NULL, NULL, 0, NULL},
};

static PyMethodDef xbar_defs[] = {
    {"route_requests", (PyCFunction)(void (*)(void))Xbar_route_requests,
     METH_VARARGS | METH_KEYWORDS,
     "route_requests(device, sim, cycle, moves, tracer)\n--\n\n"
     "Route up to *moves* packets of the request queue to local vaults\n"
     "or one hop along the chain (stages 1/2); returns the count moved."},
    {NULL, NULL, 0, NULL},
};

/* The classes the C addresses, each passed to ``bind`` under its name:
 * the slots it reads at resolved offsets, and the methods ``bind``
 * installs on the class. */
static const struct {
    const char *name;
    PyTypeObject **type;
    const char *const *slots;
    Py_ssize_t *off;
    int nslots;
    PyMethodDef *defs;
} class_table[] = {
    {"Packet", &packet_type, P_names, P_off, P_N, NULL},
    {"PacketQueue", &queue_type, Q_names, Q_off, Q_N, queue_defs},
    {"Vault", &vault_type, V_names, V_off, V_N, vault_defs},
    {"Bank", &bank_type, B_names, B_off, B_N, bank_defs},
    {"Tracer", &tracer_type, T_names, T_off, T_N, tracer_defs},
    {"CrossbarUnit", &xbar_type, C_names, C_off, C_N, xbar_defs},
    {"HMCDevice", &device_type, D_names, D_off, D_N, NULL},
    {"AddressMap", &amap_type, NULL, NULL, 0, NULL},
    {"CMD", &cmd_type, NULL, NULL, 0, NULL},
};

/* The named values the C reads: member *name* of the namespace passed
 * to ``bind`` as *ns*, or without *ns* the keyword argument *name*
 * itself.  *obj* takes the value, or with *ll* set its int (a buffered
 * tuple's etype), and *ll* takes that int. */
static const struct {
    const char *ns, *name;
    PyObject **obj;
    long long *ll;
} constant_table[] = {
    {"CommandClass", "FLOW", &cls_flow},
    {"CommandClass", "READ", &cls_read},
    {"CommandClass", "WRITE", &cls_write},
    {"CommandClass", "POSTED_WRITE", &cls_posted_write},
    {"CommandClass", "ATOMIC", &cls_atomic},
    {"CommandClass", "POSTED_ATOMIC", &cls_posted_atomic},
    {"CommandClass", "MODE_READ", &cls_mode_read},
    {"CommandClass", "MODE_WRITE", &cls_mode_write},
    {"ErrStat", "INVALID_ADDRESS", &err_address},
    {"ErrStat", "INVALID_CMD", &err_cmd},
    {"ErrStat", "UNROUTABLE", &err_unroutable},
    {"EventType", "BANK_CONFLICT", &ev_conflict, &m_conflict},
    {"EventType", "VAULT_RSP_STALL", &ev_stall, &m_stall},
    {"EventType", "RQST_READ", &ev_read, &m_read},
    {"EventType", "RQST_WRITE", &ev_write, &m_write},
    {"EventType", "XBAR_RQST_STALL", &ev_rqst_stall, &m_rqst_stall},
    {"EventType", "LATENCY_PENALTY", &ev_latency, &m_latency},
    {"EventType", "XBAR_RSP_STALL", &ev_rsp_stall, &m_rsp_stall},
    {"EventType", "PKT_EXPIRED", &ev_expired, &m_expired},
    {"EventType", "RSP_REGISTERED", &ev_registered, &m_registered},
    {"EventType", "CHAIN_HOP", NULL, &m_chain_hop},
    {"EventType", "XBAR_RQST_STALL", &member_rqst_stall},
    {"EventType", "CHAIN_HOP", &member_chain_hop},
    {"EventType", "MISROUTE", &member_misroute},
    {"EventType", "RSP_DELIVERED", &ev_delivered, &m_delivered},
    {"ErrStat", "OK", &err_ok},
    {"CMD", "ERROR", &cmd_error_obj, &cmd_error},
    {"LinkHealth", "FAILED", &health_failed},
    {NULL, "TopologyError", &exc_topology},
    {NULL, "StallError", &exc_stall},
    {NULL, "LinkDeadError", &exc_dead},
    {NULL, "host_sender", &host_sender},
    {NULL, "posted", &posted_set},
    {NULL, "max_tag", NULL, &max_tag},
    {NULL, "max_adrs", NULL, &max_adrs},
    {NULL, "max_cub", NULL, &max_cub},
    {NULL, "zeros", &np_zeros},
    {NULL, "word_dtype", &word_dtype},
    {NULL, "flag_dtype", &flag_dtype},
    {NULL, "ok", &tx_ok},
    {NULL, "dead", &tx_dead},
    {NULL, "far", NULL, &far_cycle},
    {NULL, "atom_bytes", NULL, &atom_bytes},
    {NULL, "fetch_bytes", NULL, &fetch_bytes},
};

/* ``bind``'s keyword argument *name*, borrowed; TypeError when absent. */
static PyObject *
arg(PyObject *kw, const char *name)
{
    PyObject *v = kw == NULL ? NULL : PyDict_GetItemString(kw, name);
    if (v == NULL)
        PyErr_Format(PyExc_TypeError, "bind() needs the keyword argument %s=", name);
    return v;
}

/* Row *i* of the class table: the class, its slot offsets, its methods. */
static int
bind_class(PyObject *kw, int i)
{
    PyObject *tp = arg(kw, class_table[i].name);
    if (tp == NULL)
        return -1;
    if (!PyType_Check(tp)) {
        PyErr_Format(PyExc_TypeError, "%s must be a class", class_table[i].name);
        return -1;
    }
    PyTypeObject *type = (PyTypeObject *)Py_NewRef(tp);
    Py_XSETREF(*class_table[i].type, type);
    for (int k = 0; k < class_table[i].nslots; k++)
        if ((class_table[i].off[k] = slot_offset(type, class_table[i].slots[k])) < 0)
            return -1;
    for (PyMethodDef *def = class_table[i].defs; def && def->ml_name; def++) {
        PyObject *method = PyDescr_NewMethod(type, def);
        int rc = method == NULL ? -1 : PyObject_SetAttrString(tp, def->ml_name, method);
        Py_XDECREF(method);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* Row *i* of the constant table. */
static int
bind_constant(PyObject *kw, int i)
{
    const char *ns = constant_table[i].ns, *name = constant_table[i].name;
    PyObject *v = arg(kw, ns ? ns : name);
    if (v == NULL || (v = ns ? PyObject_GetAttrString(v, name) : Py_NewRef(v)) == NULL)
        return -1;
    if (constant_table[i].ll != NULL) {
        Py_SETREF(v, PyNumber_Index(v));
        if (v == NULL || parse_ll(v, constant_table[i].ll) < 0) {
            Py_XDECREF(v);
            return -1;
        }
    }
    if (constant_table[i].obj != NULL)
        Py_XSETREF(*constant_table[i].obj, v);
    else
        Py_DECREF(v);
    return 0;
}

/* The offsets of every slot of Packet, for copying a reply prototype. */
static int
bind_packet_slots(void)
{
    PyObject *slots = PyObject_GetAttrString((PyObject *)packet_type, "__slots__");
    PyObject *fast = slots ? PySequence_Fast(slots, "Packet.__slots__") : NULL;
    Py_XDECREF(slots);
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    Py_ssize_t *off = PyMem_New(Py_ssize_t, n);
    int rc = off == NULL ? (PyErr_NoMemory(), -1) : 0;
    for (Py_ssize_t i = 0; rc == 0 && i < n; i++) {
        const char *name = PyUnicode_AsUTF8(PySequence_Fast_GET_ITEM(fast, i));
        rc = name == NULL || (off[i] = slot_offset(packet_type, name)) < 0 ? -1 : 0;
    }
    Py_DECREF(fast);
    if (rc < 0) {
        PyMem_Free(off);
        return -1;
    }
    PyMem_Free(packet_all_off);
    packet_all_off = off;
    packet_nslots = n;
    return 0;
}

/* Table keyed by CMD value: a dict {int(cmd): value} into *out*. */
static int
cmd_table(PyObject *dict, PyObject **objs, long long *ints)
{
    PyObject *key, *value;
    Py_ssize_t pos = 0;
    if (dict == NULL)
        return -1;
    if (!PyDict_Check(dict)) {
        PyErr_SetString(PyExc_TypeError, "command tables are dicts");
        return -1;
    }
    while (PyDict_Next(dict, &pos, &key, &value)) {
        long cmd = PyLong_AsLong(key);
        if (cmd == -1 && PyErr_Occurred())
            return -1;
        if (cmd < 0 || cmd >= NCMD) {
            PyErr_Format(PyExc_ValueError, "command %ld is not 6-bit", cmd);
            return -1;
        }
        if (objs != NULL) {
            if (!Py_IS_TYPE(value, packet_type)) {
                PyErr_SetString(PyExc_TypeError, "reply prototypes are Packets");
                return -1;
            }
            Py_INCREF(value);
            Py_XSETREF(objs[cmd], value);
        }
        else if (parse_ll(value, &ints[cmd]) < 0)
            return -1;
    }
    return 0;
}

/* The per-command inputs: reply and request prototypes, read sizes,
 * BWR commands, posted commands. */
static int
bind_commands(PyObject *kw)
{
    PyObject *it = PyObject_GetIter(posted_set), *cmd;
    long long v;
    for (int i = 0; i < NCMD; i++) {
        Py_CLEAR(reply_proto[i]);
        Py_CLEAR(request_proto[i]);
    }
    memset(read_bytes, 0, sizeof read_bytes);
    memset(is_bwr_cmd, 0, sizeof is_bwr_cmd);
    memset(posted_cmd, 0, sizeof posted_cmd);
    while (it != NULL && (cmd = PyIter_Next(it)) != NULL) {
        int rc = parse_ll(cmd, &v);
        Py_DECREF(cmd);
        if (rc < 0 || v < 0 || v >= NCMD)
            break;
        posted_cmd[v] = 1;
    }
    Py_XDECREF(it);
    if (it == NULL || PyErr_Occurred() || (cmd != NULL && !PyErr_Format(
            PyExc_ValueError, "command %lld is not 6-bit", v)))
        return -1;
    return cmd_table(arg(kw, "replies"), reply_proto, NULL) < 0
        || cmd_table(arg(kw, "requests"), request_proto, NULL) < 0
        || cmd_table(arg(kw, "read_bytes"), NULL, read_bytes) < 0
        || cmd_table(arg(kw, "bwr"), NULL, is_bwr_cmd) < 0 ? -1 : 0;
}

static PyObject *
bind(PyObject *mod, PyObject *args, PyObject *kw)
{
    if (PyTuple_GET_SIZE(args) != 0) {
        PyErr_SetString(PyExc_TypeError, "bind() takes keyword arguments only");
        return NULL;
    }
    for (int i = 0; i < LEN(class_table); i++)
        if (bind_class(kw, i) < 0)
            return NULL;
    for (int i = 0; i < LEN(constant_table); i++)
        if (bind_constant(kw, i) < 0)
            return NULL;
    if (bind_packet_slots() < 0 || bind_commands(kw) < 0)
        return NULL;
    if (atom_bytes != 16) {
        PyErr_SetString(PyExc_ValueError, "the bank rows hold 16-byte atoms");
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyMethodDef module_defs[] = {
    {"bind", (PyCFunction)(void (*)(void))bind, METH_VARARGS | METH_KEYWORDS,
     "bind(*, Packet, PacketQueue, Vault, Bank, Tracer, CrossbarUnit, HMCDevice,\n"
     "     AddressMap, CMD, CommandClass, ErrStat, EventType, LinkHealth, replies,\n"
     "     requests, read_bytes, bwr, posted, far, atom_bytes, fetch_bytes, zeros,\n"
     "     word_dtype, flag_dtype, ok, dead, host_sender, TopologyError, StallError,\n"
     "     LinkDeadError, max_tag, max_adrs, max_cub)\n"
     "--\n\n"
     "Resolve the slots of the classes the C addresses, install their C\n"
     "methods, and hand over the named members and the constants it reads.\n"
     "A second call re-resolves everything."},
    {"route_stage", (PyCFunction)(void (*)(void))route_stage, METH_FASTCALL,
     "route_stage(devices, sim, cycle, order, moves, tracer) -> moved"},
    {"vault_stage", (PyCFunction)(void (*)(void))vault_stage, METH_FASTCALL,
     "vault_stage(devices, cycle, window, width, busy, row_timing, tracer)"
     " -> (conflicts, issued)"},
    {"response_stage", (PyCFunction)(void (*)(void))response_stage, METH_FASTCALL,
     "response_stage(devices, sim, cycle, moves, tracer) -> moved"},
    {"build_memrequest", (PyCFunction)(void (*)(void))build_memrequest,
     METH_VARARGS | METH_KEYWORDS,
     "build_memrequest(cub, addr, tag, cmd, payload=None, link=0)\n--\n\n"
     "Build a fully formed, compliant request packet.\n\n"
     "Mirrors the C library's ``hmcsim_build_memrequest`` (Fig. 4): the\n"
     "caller supplies target cube, physical address, tag, command and -- for\n"
     "write/atomic commands -- the data payload as 64-bit words.  For\n"
     "commands that carry data, the payload is zero-filled or truncated to\n"
     "the exact FLIT count the command requires, matching the C behaviour\n"
     "of reading a caller buffer of the prescribed length."},
    {"host_inject", (PyCFunction)(void (*)(void))host_inject, METH_FASTCALL,
     "host_inject(host, item, more, cub, kinds) -> (sent, held)"},
    {"host_drain", (PyCFunction)(void (*)(void))host_drain, METH_FASTCALL,
     "host_drain(host, kinds) -> responses"},
    {"host_send", (PyCFunction)(void (*)(void))host_send, METH_FASTCALL,
     "host_send(sim, pkt, dev, link)"},
    {"host_poll", (PyCFunction)(void (*)(void))host_poll, METH_FASTCALL,
     "host_poll(sim, links, n, rotor) -> response or None"},
    {"host_recv_all", (PyCFunction)host_recv_all, METH_O,
     "host_recv_all(sim) -> responses"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_vaultwalk",
    "The cycle's queue stages 1-5, the banks' row read/write and the host\n"
    "lane, in C.",
    -1, module_defs,
};

PyMODINIT_FUNC
PyInit__vaultwalk(void)
{
    if (intern_all() < 0)
        return NULL;
    return PyModule_Create(&module);
}
