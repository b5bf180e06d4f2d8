/* The vault's stage 3/4 walk, its READ/WRITE execute, the reply build
 * and push, and the banks' row read/write (paper §IV.C.3-4, §IV.A).
 *
 * Built on first import by repro/core/_native.py; bound to the Python
 * classes by ``bank_methods`` (bank.py) and ``vault_methods``
 * (vault.py), which install the functions below as methods of ``Bank``
 * and ``Vault``.  The C holds no state of its own: it reads and writes
 * the same ``__slots__`` the Python code does, at the offsets their
 * member descriptors give, and the bank arrays through the buffer
 * protocol, so pickles and checkpoints do not change.  What stays in
 * Python is called back: MODE packets, error replies, BWR and the
 * atomics, open-row timing, address maps other than ``AddressMap``,
 * and ECC reads/writes.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* -- slot access ---------------------------------------------------------- */

#define SLOT(o, off) (*(PyObject **)((char *)(o) + (off)))

#define E(p, n) p##_##n,
#define S(p, n) #n,

#define PACKET(X) X(P, cmd) X(P, cub) X(P, tag) X(P, addr) X(P, payload) \
    X(P, slid) X(P, serial) X(P, injected_at) X(P, hops)                   \
    X(P, ingress_link) X(P, src_cub) X(P, route_stack) X(P, dec_bank)      \
    X(P, cls) X(P, expects_response) X(P, is_special) X(P, num_flits)
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

enum { PACKET(E) P_N };
enum { QUEUE(E) Q_N };
enum { VAULT(E) V_N };
enum { BANK(E) B_N };
static const char *const P_names[] = { PACKET(S) };
static const char *const Q_names[] = { QUEUE(S) };
static const char *const V_names[] = { VAULT(S) };
static const char *const B_names[] = { BANK(S) };
static Py_ssize_t P_off[P_N], Q_off[Q_N], V_off[V_N], B_off[B_N];

/* Every slot of Packet, for copying a reply prototype. */
static Py_ssize_t *packet_all_off;
static Py_ssize_t packet_nslots;

static PyTypeObject *packet_type, *queue_type, *vault_type, *bank_type;
static PyTypeObject *amap_type;

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

static int
resolve(PyTypeObject *tp, const char *const *names, Py_ssize_t *off, int n)
{
    for (int i = 0; i < n; i++)
        if ((off[i] = slot_offset(tp, names[i])) < 0)
            return -1;
    return 0;
}

/* 0 if *o* is a *tp* (whose slots the offsets address), else TypeError. */
static int
check_type(PyObject *o, PyTypeObject *tp)
{
    if (PyObject_TypeCheck(o, tp))
        return 0;
    PyErr_Format(PyExc_TypeError, "expected %s, got %s", tp->tp_name,
                 Py_TYPE(o)->tp_name);
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
static PyObject *packet_globals;        /* _packet_serial, read per reply */
static PyObject *reply_proto[NCMD];     /* per request CMD, from _fast_new */
static long long read_bytes[NCMD];      /* REQUEST_DATA_BYTES */
static char is_bwr_cmd[NCMD];
static PyObject *cls_flow, *cls_read, *cls_write, *cls_posted_write;
static PyObject *cls_atomic, *cls_posted_atomic;
static PyObject *err_address, *err_cmd;
static PyObject *ev_conflict, *ev_stall, *ev_read, *ev_write;
static long long m_conflict, m_stall, m_read, m_write;
static PyObject *minus_one, *busy_true, *busy_false;

static PyObject *s_append, *s_add, *s_emit_fast, *s_live_mask, *s_addr;
static PyObject *s_do_mode, *s_error_response, *s_read_modify_write;
static PyObject *s_decode, *s_dram, *s_offset;
static PyObject *s_block_size, *s_bank_of, *s_dram_of, *s_bs, *s_bank_mask;
static PyObject *s_ds, *s_dram_mask, *s_offset_mask, *s_capacity_bytes;
static PyObject *s_access_busy_cycles;
static PyObject *s_packet_serial;

/* Vault.stage34's parameters, for keyword matching. */
static const char *const stage34_kw[] = {
    "cycle", "amap", "window", "issue_width", "bank_busy_cycles", "tracer",
    "dev_id", "row_timing"};
static PyObject *stage34_names[8];      /* the same, interned */

static int
intern_all(void)
{
#define I(var, text) if ((var = PyUnicode_InternFromString(text)) == NULL) return -1;
    I(s_append, "append") I(s_add, "add") I(s_emit_fast, "emit_fast")
    I(s_live_mask, "live_mask") I(s_addr, "addr") I(s_do_mode, "_do_mode")
    I(s_error_response, "_error_response")
    I(s_read_modify_write, "_read_modify_write")
    I(s_decode, "decode")
    I(s_dram, "dram") I(s_offset, "offset") I(s_block_size, "block_size")
    I(s_bank_of, "bank_of") I(s_dram_of, "dram_of") I(s_bs, "_bs")
    I(s_bank_mask, "_bank_mask") I(s_ds, "_ds") I(s_dram_mask, "_dram_mask")
    I(s_offset_mask, "_offset_mask") I(s_capacity_bytes, "capacity_bytes")
    I(s_access_busy_cycles, "access_busy_cycles")
    I(s_packet_serial, "_packet_serial")
#undef I
    for (int j = 0; j < 8; j++)
        if ((stage34_names[j] = PyUnicode_InternFromString(stage34_kw[j])) == NULL)
            return -1;
    minus_one = PyLong_FromLong(-1);
    busy_true = Py_BuildValue("(sO)", "busy", Py_True);
    busy_false = Py_BuildValue("(sO)", "busy", Py_False);
    return (minus_one && busy_true && busy_false) ? 0 : -1;
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
    if (left < 0)
        goto done;
    PyObject *act = get(queue, Q_off[Q__act_set]);
    PyObject *key = get(queue, Q_off[Q__act_key]);
    if (act == NULL || key == NULL)
        goto done;
    if (left == 0 && act != Py_None) {
        PyObject *r = PyObject_CallMethod(act, "discard", "O", key);
        if (r == NULL)
            goto done;
        Py_DECREF(r);
    }
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

static int
emit(Walk *w, PyObject *etype, long long bank, PyObject *serial, PyObject *extra)
{
    PyObject *quad = get(w->self, V_off[V_quad_id]);
    PyObject *vid = get(w->self, V_off[V_vault_id]);
    PyObject *bank_obj = PyLong_FromLongLong(bank);
    if (quad == NULL || vid == NULL || bank_obj == NULL) {
        Py_XDECREF(bank_obj);
        return -1;
    }
    PyObject *args[] = {w->tracer, etype, w->cycle_obj, w->dev_obj, minus_one,
                        quad, vid, bank_obj, minus_one, serial, extra};
    PyObject *r = PyObject_VectorcallMethod(s_emit_fast, args, 11, NULL);
    Py_DECREF(bank_obj);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
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

/* Queue *rsp* (a new reference, consumed) as *request*'s reply in the
 * vault's response queue; the caller proved the room. */
static int
push_reply(PyObject *vault, PyObject *rsp, PyObject *request, PyObject *cycle)
{
    int rc = -1;
    PyObject *queue = get(vault, V_off[V_rsp]);
    if (queue == NULL || check_type(queue, queue_type) < 0
        || check_type(rsp, packet_type) < 0
        || check_type(request, packet_type) < 0)
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
    PyObject *q = get(queue, Q_off[Q__q]), *stamps = get(queue, Q_off[Q__stamps]);
    long long high;
    if (q == NULL || stamps == NULL
        || get_ll(queue, Q_off[Q_high_water], &high) < 0)
        goto done;
    Py_ssize_t n = PyObject_Size(q);
    if (n < 0)
        goto done;
    if (n == 0) {
        PyObject *act = get(queue, Q_off[Q__act_set]);
        PyObject *key = get(queue, Q_off[Q__act_key]);
        if (act == NULL || key == NULL)
            goto done;
        if (act != Py_None) {
            PyObject *r = PyObject_CallMethodOneArg(act, s_add, key);
            if (r == NULL)
                goto done;
            Py_DECREF(r);
        }
    }
    PyObject *r = PyObject_CallMethodOneArg(q, s_append, rsp);
    if (r == NULL)
        goto done;
    Py_DECREF(r);
    if ((r = PyObject_CallMethodOneArg(stamps, s_append, cycle)) == NULL)
        goto done;
    Py_DECREF(r);
    if (add_ll(queue, Q_off[Q_total_enqueued], 1) < 0
        || (n >= high && set_ll(queue, Q_off[Q_high_water], n + 1) < 0))
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
    PyObject *serials = PyDict_GetItemWithError(packet_globals, s_packet_serial);
    if (serials == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_NameError, "_packet_serial is gone");
        return NULL;
    }
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
    Py_INCREF(serials);
    PyObject *serial = PyIter_Next(serials);
    Py_DECREF(serials);
    if (serial == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetNone(PyExc_StopIteration);
        goto fail;
    }
    set_new(rsp, P_off[P_serial], serial);
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

/* Cycles the access keeps the bank busy: the closed-page constant, or
 * the open-row policy's hit/miss time (Bank.access_busy_cycles). */
static int
busy_cycles(Walk *w, PyObject *bank, PyObject *addr, long long *out)
{
    if (w->row_timing == Py_None) {
        *out = w->busy_cycles;
        return 0;
    }
    PyObject *timing = PySequence_Tuple(w->row_timing);
    if (timing == NULL)
        return -1;
    if (PyTuple_GET_SIZE(timing) != 2) {
        Py_DECREF(timing);
        PyErr_SetString(PyExc_ValueError, "row_timing is (hit_cycles, miss_cycles)");
        return -1;
    }
    PyObject *row = PyObject_CallMethodOneArg(w->amap, s_dram_of, addr);
    int rc = -1;
    if (row != NULL) {
        PyObject *args[] = {bank, row, w->busy_obj, Py_True,
                            PyTuple_GET_ITEM(timing, 0), PyTuple_GET_ITEM(timing, 1)};
        rc = call_ll(PyObject_VectorcallMethod(s_access_busy_cycles, args, 6, NULL),
                     out);
        Py_DECREF(row);
    }
    Py_DECREF(timing);
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
        return push_reply(self, rsp, pkt, w->cycle_obj);
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
        return push_reply(self, rsp, pkt, w->cycle_obj);
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

static PyObject *walk(Walk w, PyObject *rqst, long long window,
                      long long width);

static PyObject *
Vault_stage34(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    PyObject *a[8] = {NULL, NULL, NULL, NULL, NULL, NULL, NULL, Py_None};
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    if (nargs > 8) {
        PyErr_SetString(PyExc_TypeError, "stage34 takes at most 8 arguments");
        return NULL;
    }
    for (Py_ssize_t i = 0; i < nargs; i++)
        a[i] = args[i];
    for (Py_ssize_t k = 0; k < nkw; k++) {
        PyObject *name = PyTuple_GET_ITEM(kwnames, k);
        int j = 0;
        while (j < 8 && name != stage34_names[j])
            j++;
        if (j == 8)     /* not interned: compare the text */
            for (j = 0; j < 8; j++)
                if (PyUnicode_CompareWithASCIIString(name, stage34_kw[j]) == 0)
                    break;
        if (j == 8 || j < nargs) {
            PyErr_Format(PyExc_TypeError, "stage34() got an unexpected or "
                         "repeated keyword argument '%U'", name);
            return NULL;
        }
        a[j] = args[nargs + k];
    }
    for (int j = 0; j < 7; j++)
        if (a[j] == NULL) {
            PyErr_Format(PyExc_TypeError, "stage34() missing argument '%s'",
                         stage34_kw[j]);
            return NULL;
        }
    Walk w = {.self = self, .cycle_obj = a[0], .amap = a[1], .tracer = a[5],
              .dev_obj = a[6], .row_timing = a[7], .busy_obj = a[4],
              .classic = Py_IS_TYPE(a[1], amap_type)};
    long long window, width;
    if (parse_ll(a[0], &w.cycle) < 0 || parse_ll(a[2], &window) < 0
        || parse_ll(a[3], &width) < 0 || parse_ll(a[4], &w.busy_cycles) < 0)
        return NULL;
    PyObject *rqst = get(self, V_off[V_rqst]);
    w.banks = get(self, V_off[V_banks]);
    if (rqst == NULL || w.banks == NULL || check_type(rqst, queue_type) < 0)
        return NULL;
    if (!PyList_Check(w.banks) || PyList_GET_SIZE(w.banks) > NBANK) {
        PyErr_SetString(PyExc_ValueError, "a vault holds a list of at most 64 banks");
        return NULL;
    }
    w.nbanks = PyList_GET_SIZE(w.banks);
    /* Held across the Python the walk calls back. */
    Py_INCREF(rqst);
    Py_INCREF(w.banks);
    PyObject *result = walk(w, rqst, window, width);
    Py_DECREF(w.banks);
    Py_DECREF(rqst);
    return result;
}

/* Stages 3 and 4 over *rqst*, the vault's request queue. */
static PyObject *
walk(Walk w, PyObject *rqst, long long window, long long width)
{
    PyObject *self = w.self;
    PyObject *q = get(rqst, Q_off[Q__q]);
    if (q == NULL)
        return NULL;
    Py_ssize_t qlen = PyObject_Size(q);
    if (qlen <= 0)
        return qlen < 0 ? NULL : pair(0, 0);
    unsigned long long busy_mask;
    if (busy_state(self, w.banks, w.cycle, &busy_mask) < 0
        || attr_ll(w.tracer, s_live_mask, &w.live) < 0)
        return NULL;

    PyObject *it = NULL, *pkt = NULL;
    Py_ssize_t small[128], *removed = small, nremoved = 0, room_left = 128;
    long long conflicts = 0, issued = 0, bank;

    /* Stage 3 (§IV.C.3): conflict recognition, read-only.  A packet
     * among the first *window* conflicts when its bank is busy or an
     * earlier windowed packet targets it. */
    unsigned long long seen = busy_mask, hit = 0;
    long long per_bank[NBANK];
    if (window > 0 && (it = PyObject_GetIter(q)) == NULL)
        return NULL;
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

    /* Stage 4 (§IV.C.4): retire up to *width* requests in FIFO order.  A
     * packet issues when its bank is free and no earlier queued packet
     * targets it; one needing a reply stalls in place while the response
     * queue is full.  The scan stops at the width, or once every bank
     * free this cycle is blocked with no FLOW/MODE packet left ahead:
     * past that point it could change nothing. */
    if (width <= 0)
        return pair(conflicts, 0);
    long long specials, depth;
    PyObject *rsp_queue = get(self, V_off[V_rsp]);
    if (rsp_queue == NULL || check_type(rsp_queue, queue_type) < 0)
        return NULL;
    PyObject *rsp_q = get(rsp_queue, Q_off[Q__q]);
    if (rsp_q == NULL || get_ll(rqst, Q_off[Q_special_count], &specials) < 0
        || get_ll(rsp_queue, Q_off[Q_depth], &depth) < 0)
        return NULL;
    long long free_banks = w.nbanks - __builtin_popcountll(busy_mask);
    if (free_banks == 0 && !specials) {
        if (add_ll(self, V_off[V_issue_stall_cycles], 1) < 0)
            return NULL;
        return pair(conflicts, 0);
    }
    Py_ssize_t nrsp = PyObject_Size(rsp_q);
    if (nrsp < 0)
        return NULL;
    if (qlen > 128) {
        if ((removed = PyMem_New(Py_ssize_t, qlen)) == NULL)
            return PyErr_NoMemory();
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
            return NULL;
    }
    return pair(conflicts, issued);
fail:
    Py_XDECREF(pkt);
    Py_XDECREF(it);
    if (removed != small)
        PyMem_Free(removed);
    return NULL;
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
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "_push_response(rsp, request, cycle)");
        return NULL;
    }
    Py_INCREF(args[0]);
    if (push_reply(self, args[0], args[1], args[2]) < 0)
        return NULL;
    return PyLong_FromLong(1);
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
};

static PyMethodDef vault_defs[] = {
    {"stage34", (PyCFunction)(void (*)(void))Vault_stage34,
     METH_FASTCALL | METH_KEYWORDS,
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
     "_push_response(rsp, request, cycle)\n--\n\n"
     "Queue *rsp* as *request*'s reply; the caller checked for room.\n"
     "Returns the slots taken (1)."},
};

static PyObject *
methods_of(PyTypeObject *tp, PyMethodDef *defs, int n)
{
    PyObject *out = PyTuple_New(n);
    for (int i = 0; out != NULL && i < n; i++) {
        PyObject *d = PyDescr_NewMethod(tp, &defs[i]);
        if (d == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, d);
    }
    return out;
}

static PyTypeObject *
as_type(PyObject *o, const char *what)
{
    if (!PyType_Check(o)) {
        PyErr_Format(PyExc_TypeError, "%s must be a class", what);
        return NULL;
    }
    Py_INCREF(o);
    return (PyTypeObject *)o;
}

static PyObject *
bank_methods(PyObject *mod, PyObject *args)
{
    PyObject *tp;
    if (!PyArg_ParseTuple(args, "OLLOOO", &tp, &atom_bytes, &fetch_bytes,
                          &np_zeros, &word_dtype, &flag_dtype))
        return NULL;
    Py_INCREF(np_zeros);
    Py_INCREF(word_dtype);
    Py_INCREF(flag_dtype);
    if (atom_bytes != 16) {
        PyErr_SetString(PyExc_ValueError, "the bank rows hold 16-byte atoms");
        return NULL;
    }
    if ((bank_type = as_type(tp, "Bank")) == NULL
        || resolve(bank_type, B_names, B_off, B_N) < 0)
        return NULL;
    return methods_of(bank_type, bank_defs, 3);
}

static PyMethodDef queue_defs[] = {
    {"remove_positions", (PyCFunction)Queue_remove_positions, METH_O,
     "remove_positions(positions)\n--\n\n"
     "Remove the entries at ascending FIFO *positions* in one pass.\n\n"
     "FIFO order of the survivors is preserved; removed entries count\n"
     "as dequeued (the same accounting as ``pop``)."},
};

static PyObject *
queue_methods(PyObject *mod, PyObject *args)
{
    PyObject *qt, *pt;
    if (!PyArg_ParseTuple(args, "OO", &qt, &pt))
        return NULL;
    if ((queue_type = as_type(qt, "PacketQueue")) == NULL
        || (packet_type = as_type(pt, "Packet")) == NULL
        || resolve(queue_type, Q_names, Q_off, Q_N) < 0
        || resolve(packet_type, P_names, P_off, P_N) < 0)
        return NULL;
    return methods_of(queue_type, queue_defs, 1);
}

static int
member(PyObject *ns, const char *name, PyObject **out)
{
    *out = PyObject_GetAttrString(ns, name);
    return *out == NULL ? -1 : 0;
}

static int
event(PyObject *events, const char *name, PyObject **obj, long long *mask)
{
    PyObject *e = PyObject_GetAttrString(events, name);
    if (e == NULL)
        return -1;
    *obj = PyNumber_Index(e);
    Py_DECREF(e);
    return *obj == NULL ? -1 : parse_ll(*obj, mask);
}

/* Table keyed by CMD value: a dict {int(cmd): value} into *out*. */
static int
cmd_table(PyObject *dict, PyObject **objs, long long *ints)
{
    PyObject *key, *value;
    Py_ssize_t pos = 0;
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

static PyObject *
vault_methods(PyObject *mod, PyObject *args, PyObject *kw)
{
    static char *names[] = {"vault", "amap", "packets", "replies",
                            "read_bytes", "bwr", "classes", "errstat",
                            "events", "far", NULL};
    PyObject *vt, *at, *packets, *replies, *rbytes, *bwr, *classes;
    PyObject *errstat, *events;
    if (!PyArg_ParseTupleAndKeywords(args, kw, "OOOOOOOOOL", names, &vt, &at,
                                     &packets, &replies, &rbytes, &bwr,
                                     &classes, &errstat, &events, &far_cycle))
        return NULL;
    if (bank_type == NULL || packet_type == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "bind the Bank and PacketQueue methods first");
        return NULL;
    }
    PyObject *pt = (PyObject *)packet_type, *slots;
    if ((vault_type = as_type(vt, "vault")) == NULL
        || (amap_type = as_type(at, "amap")) == NULL
        || resolve(vault_type, V_names, V_off, V_N) < 0
        || (packet_globals = PyModule_GetDict(packets)) == NULL)
        return NULL;
    Py_INCREF(packet_globals);
    if ((slots = PyObject_GetAttrString(pt, "__slots__")) == NULL)
        return NULL;
    PyObject *fast = PySequence_Fast(slots, "Packet.__slots__");
    Py_DECREF(slots);
    if (fast == NULL)
        return NULL;
    packet_nslots = PySequence_Fast_GET_SIZE(fast);
    PyMem_Free(packet_all_off);
    if ((packet_all_off = PyMem_New(Py_ssize_t, packet_nslots)) == NULL) {
        Py_DECREF(fast);
        return PyErr_NoMemory();
    }
    for (Py_ssize_t i = 0; i < packet_nslots; i++) {
        const char *name = PyUnicode_AsUTF8(PySequence_Fast_GET_ITEM(fast, i));
        if (name == NULL
            || (packet_all_off[i] = slot_offset(packet_type, name)) < 0) {
            Py_DECREF(fast);
            return NULL;
        }
    }
    Py_DECREF(fast);
    if (cmd_table(replies, reply_proto, NULL) < 0
        || cmd_table(rbytes, NULL, read_bytes) < 0)
        return NULL;
    PyObject *bwr_fast = PySequence_Fast(bwr, "bwr commands");
    if (bwr_fast == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(bwr_fast); i++) {
        long cmd = PyLong_AsLong(PySequence_Fast_GET_ITEM(bwr_fast, i));
        if (cmd < 0 || cmd >= NCMD) {
            Py_DECREF(bwr_fast);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "BWR command is not 6-bit");
            return NULL;
        }
        is_bwr_cmd[cmd] = 1;
    }
    Py_DECREF(bwr_fast);
    if (member(classes, "FLOW", &cls_flow) < 0
        || member(classes, "READ", &cls_read) < 0
        || member(classes, "WRITE", &cls_write) < 0
        || member(classes, "POSTED_WRITE", &cls_posted_write) < 0
        || member(classes, "ATOMIC", &cls_atomic) < 0
        || member(classes, "POSTED_ATOMIC", &cls_posted_atomic) < 0
        || member(errstat, "INVALID_ADDRESS", &err_address) < 0
        || member(errstat, "INVALID_CMD", &err_cmd) < 0
        || event(events, "BANK_CONFLICT", &ev_conflict, &m_conflict) < 0
        || event(events, "VAULT_RSP_STALL", &ev_stall, &m_stall) < 0
        || event(events, "RQST_READ", &ev_read, &m_read) < 0
        || event(events, "RQST_WRITE", &ev_write, &m_write) < 0)
        return NULL;
    return methods_of(vault_type, vault_defs, 3);
}

static PyMethodDef module_defs[] = {
    {"bank_methods", bank_methods, METH_VARARGS,
     "bank_methods(Bank, atom_bytes, fetch_bytes, zeros, word_dtype, flag_dtype)\n"
     "-> (read, write, _materialize)"},
    {"queue_methods", queue_methods, METH_VARARGS,
     "queue_methods(PacketQueue, Packet) -> (remove_positions,)"},
    {"vault_methods", (PyCFunction)(void (*)(void))vault_methods,
     METH_VARARGS | METH_KEYWORDS,
     "vault_methods(vault=, amap=, packets=, replies=, read_bytes=, "
     "bwr=, classes=, errstat=, events=, far=)\n"
     "-> (stage34, _busy_state, _push_response)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_vaultwalk",
    "The vault's stage 3/4 walk and the banks' row read/write, in C.",
    -1, module_defs,
};

PyMODINIT_FUNC
PyInit__vaultwalk(void)
{
    if (intern_all() < 0)
        return NULL;
    return PyModule_Create(&module);
}
