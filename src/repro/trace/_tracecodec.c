/* The trace pipeline's per-batch work (paper §IV.E, §VI.B), built on
 * first import by repro/core/_native.py.  A batch is what the tracer
 * hands its sinks: tuples ``(type, cycle, dev, link, quad, vault, bank,
 * stage, serial, extra_pairs | None)`` and/or TraceEvents (read through
 * ``as_tuple()``).  ``encode`` writes its binary records (binfmt.py) as
 * one bytes; ``fold`` adds it to a TraceStats: the totals dict, and the
 * int64 series through the buffer protocol.  Python is called back for
 * types past 0x8000, extras other than ASCII identifier keys over bools
 * and ints, and ``TraceStats._grow``. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

enum { F_TYPE, F_CYCLE, F_DEV, F_LINK, F_QUAD, F_VAULT, F_BANK, F_STAGE,
       F_SERIAL, F_EXTRA, NFIELDS };
static const char *const field_name[NFIELDS] = {"type", "cycle", "dev", "link",
    "quad", "vault", "bank", "stage", "serial", "extra"};

/* binfmt's BinaryTraceError, _pack_type and _extras_json. */
static PyObject *trace_error, *pack_type, *extras_json;
static PyObject *s_as_tuple, *s_totals, *s_global, *s_vault, *s_num_vaults;
static PyObject *s_cap, *s_max_cycle, *s_events_seen;

/* Entry *i* of *seq*, a copy of the batch that Python called back cannot
 * change, as a new reference to its 10-tuple. */
static PyObject *
entry(PyObject *seq, Py_ssize_t i)
{
    PyObject *e = PyTuple_GET_ITEM(seq, i);
    e = PyTuple_CheckExact(e) ? Py_NewRef(e) : PyObject_CallMethodNoArgs(e, s_as_tuple);
    if (e != NULL && (!PyTuple_CheckExact(e) || PyTuple_GET_SIZE(e) != NFIELDS)) {
        PyErr_SetString(PyExc_ValueError, "a trace entry holds 10 fields");
        Py_CLEAR(e);
    }
    return e;
}

/* Field *i*, *o*, as an int in [lo, hi]: else BinaryTraceError naming
 * it, or -1 when *clamp* is set and *o* is an int. */
static inline int
field_ll(PyObject *o, int i, long long lo, long long hi, int clamp, long long *out)
{
    int is_int = PyLong_Check(o), overflow = 0;
    long long v = is_int ? PyLong_AsLongLongAndOverflow(o, &overflow) : 0;
    if (is_int && clamp && (overflow || v < lo || v > hi))
        v = -1;
    else if (!is_int || overflow || v < lo || v > hi) {
        PyErr_Format(trace_error, "trace field %s=%R does not fit its record "
                     "(an int in [%lld, %lld])", field_name[i], o, lo, hi);
        return -1;
    }
    *out = v;
    return 0;
}

typedef struct {
    char *p;
    Py_ssize_t len, cap;
} Buf;

/* Append *n* bytes of *s* (reserve them, when *s* is NULL). */
static inline int
put(Buf *b, const char *s, Py_ssize_t n)
{
    char *p = b->len + n > b->cap ? PyMem_Realloc(b->p, b->cap = 2 * b->cap + n) : b->p;
    if (p == NULL)
        return PyErr_NoMemory(), -1;
    b->p = p;
    if (s != NULL)
        memcpy(b->p + b->len, s, n);
    b->len += n;
    return 0;
}

/* Little-endian *n*-byte *v* at *p*, advancing *p*. */
#define LE(p, v, n) do { unsigned long long v_ = (unsigned long long)(v); \
        for (int k_ = 0; k_ < (n); k_++, v_ >>= 8) *(p)++ = (char)v_; } while (0)

/* Write the pairs *x* as json.dumps writes ``dict(x)`` (compact).
 * Returns 1, part written, when only json.dumps can: a key that is not
 * an ASCII identifier or repeats, a value not True, False or an int of
 * 64 bits. */
static int
put_extras(Buf *b, PyObject *x)
{
    if (!PyTuple_CheckExact(x))
        return 1;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(x); i++) {
        PyObject *kv = PyTuple_GET_ITEM(x, i), *k, *v;
        if (!PyTuple_CheckExact(kv) || PyTuple_GET_SIZE(kv) != 2
            || !PyUnicode_CheckExact(k = PyTuple_GET_ITEM(kv, 0))
            || !PyUnicode_IS_ASCII(k) || PyUnicode_GET_LENGTH(k) == 0)
            return 1;
        const char *key = PyUnicode_DATA(k);
        Py_ssize_t len = PyUnicode_GET_LENGTH(k);
        for (Py_ssize_t j = 0; j < len; j++)
            if (key[j] != '_' && (key[j] | 32) - 'a' >= 26u && (!j || key[j] - '0' >= 10u))
                return 1;
        for (Py_ssize_t j = 0; j < i; j++) {
            PyObject *seen = PyTuple_GET_ITEM(PyTuple_GET_ITEM(x, j), 0);
            if (PyUnicode_GET_LENGTH(seen) == len && !memcmp(PyUnicode_DATA(seen), key, len))
                return 1;
        }
        char num[24], *text = num + sizeof num;
        int overflow = 0;
        long long iv = 0;
        if ((v = PyTuple_GET_ITEM(kv, 1)) == Py_True || v == Py_False)
            text = v == Py_True ? "true" : "false";
        else if (!PyLong_CheckExact(v)
                 || ((iv = PyLong_AsLongLongAndOverflow(v, &overflow)), overflow))
            return 1;
        else {
            unsigned long long u = iv < 0 ? 0ULL - iv : (unsigned long long)iv;
            *--text = 0;
            do
                *--text = (char)('0' + u % 10);
            while (u /= 10);
            if (iv < 0)
                *--text = '-';
        }
        size_t tn = strlen(text), n = len + tn + 4;     /* {"key":text or ,"key":text */
        if (put(b, NULL, n) < 0)
            return -1;
        char *w = b->p + b->len - n;
        w[0] = i ? ',' : '{';
        w[1] = '"';
        memcpy(w + 2, key, len);
        memcpy(w + 2 + len, "\":", 2);
        memcpy(w + 4 + len, text, tn);
    }
    return put(b, "}", 1);
}

/* One record: the 30-byte header ``<HHQbbbhhbqH``, then the extras. */
static int
put_record(Buf *b, PyObject *e)
{
    static const struct { int field, size, clamp; long long lo, hi; } fit[] = {
        {F_DEV, 1, 1, -128, 127}, {F_LINK, 1, 1, -128, 127},
        {F_QUAD, 1, 1, -128, 127}, {F_VAULT, 2, 0, -32768, 32767},
        {F_BANK, 2, 0, -32768, 32767}, {F_STAGE, 1, 1, -128, 127},
        {F_SERIAL, 8, 0, LLONG_MIN, LLONG_MAX}};
    PyObject *t = PyTuple_GET_ITEM(e, F_TYPE), *c = PyTuple_GET_ITEM(e, F_CYCLE);
    PyObject *x = PyTuple_GET_ITEM(e, F_EXTRA);
    long long etype = -1, v[7];
    int overflow = 0, rc = 0;
    if (PyLong_Check(t) && (etype = PyLong_AsLongLongAndOverflow(t, &overflow)) == -1
        && PyErr_Occurred())
        return -1;
    if (overflow || etype < 0 || etype > 0x8000) {
        /* Single flags past SUBCYCLE escape to 0x8000 | log2 (binfmt). */
        PyObject *packed = PyObject_CallOneArg(pack_type, t);
        rc = packed == NULL ? -1 : field_ll(packed, F_TYPE, 0, 0xFFFF, 0, &etype);
        Py_XDECREF(packed);
        if (rc < 0)
            return -1;
    }
    unsigned long long cycle = PyLong_Check(c) ? PyLong_AsUnsignedLongLong(c) : 0;
    if (!PyLong_Check(c) || PyErr_Occurred()) {
        PyErr_Clear();      /* the u64 field: past either end */
        PyErr_Format(trace_error, "trace field cycle=%R does not fit its record "
                     "(an int in [0, 2**64))", c);
        return -1;
    }
    for (int i = 0; rc == 0 && i < 7; i++)
        rc = field_ll(PyTuple_GET_ITEM(e, fit[i].field), fit[i].field, fit[i].lo,
                      fit[i].hi, fit[i].clamp, &v[i]);
    Py_ssize_t head = b->len;
    int truth = rc < 0 || x == Py_None ? 0 : PyObject_IsTrue(x), slow = 0;
    if (rc < 0 || put(b, NULL, 30) < 0 || truth < 0
        || (truth && (slow = put_extras(b, x)) < 0))
        return -1;
    if (slow) {
        b->len = head + 30;
        PyObject *blob = PyObject_CallOneArg(extras_json, x);
        rc = blob == NULL ? -1 : PyBytes_Check(blob)
            ? put(b, PyBytes_AS_STRING(blob), PyBytes_GET_SIZE(blob))
            : (PyErr_SetString(PyExc_TypeError, "extras JSON is bytes"), -1);
        Py_XDECREF(blob);
        if (rc < 0)
            return -1;
    }
    Py_ssize_t extras = b->len - head - 30;
    if (extras > 0xFFFF)
        return PyErr_SetString(trace_error, "extras blob exceeds 64 KiB"), -1;
    char *p = b->p + head;
    LE(p, 0x484D, 2);
    LE(p, etype, 2);
    LE(p, cycle, 8);
    for (int i = 0; i < 7; i++)
        LE(p, v[i], fit[i].size);
    LE(p, extras, 2);
    return 0;
}

static PyObject *
encode(PyObject *mod, PyObject *entries)
{
    PyObject *seq = PySequence_Tuple(entries), *out = NULL;
    Py_ssize_t n = seq ? PyTuple_GET_SIZE(seq) : 0;
    Buf b = {NULL, 0, 0};
    int rc = seq == NULL ? -1 : put(&b, NULL, 64 * n + 64);
    b.len = 0;
    for (Py_ssize_t i = 0; rc == 0 && i < n; i++) {
        PyObject *e = entry(seq, i);
        rc = e == NULL ? -1 : put_record(&b, e);
        Py_XDECREF(e);
    }
    if (rc == 0)
        out = PyBytes_FromStringAndSize(b.p, b.len);
    PyMem_Free(b.p);
    Py_XDECREF(seq);
    return out;
}

#define NSERIES 8
/* The fold's state over one batch.  A series is an event type and its
 * int64 counts: a row per cycle, and a column per vault when 2-D. */
typedef struct {
    PyObject *stats, *totals, *run_key;
    Py_ssize_t run;             /* events of type run_key not yet in totals */
    long long code[NSERIES], nv, cap, mx, seen;
    Py_buffer view[NSERIES];
    int ns;
} Fold;

static void
series_close(Fold *st)
{
    while (st->ns)
        PyBuffer_Release(&st->view[--st->ns]);
}

/* Open every array of the dicts ``_global`` and ``_vault``. */
static int
series_open(Fold *st)
{
    for (int k = 0, rc = 0; k < 2; k++) {
        PyObject *d = PyObject_GetAttr(st->stats, k ? s_vault : s_global), *key, *arr;
        Py_ssize_t pos = 0;
        rc = d != NULL && PyDict_Check(d) ? 0 : -1;
        while (rc == 0 && PyDict_Next(d, &pos, &key, &arr))
            if (st->ns == NSERIES || ((st->code[st->ns] = PyLong_AsLongLong(key)) == -1
                                      && PyErr_Occurred()))
                rc = -1;
            else if ((rc = PyObject_GetBuffer(arr, &st->view[st->ns],
                                              PyBUF_WRITABLE | PyBUF_ND)) == 0)
                rc = st->view[st->ns++].itemsize == 8 ? 0 : -1;
        Py_XDECREF(d);
        if (rc < 0) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_TypeError, "TraceStats series are "
                                "dicts of at most 8 int64 arrays");
            series_close(st);
            return -1;
        }
    }
    return 0;
}

/* ``totals[run_key] = totals.get(run_key, 0) + run`` */
static int
run_close(Fold *st)
{
    if (st->run == 0)
        return 0;
    PyObject *old = PyDict_GetItemWithError(st->totals, st->run_key), *sum = NULL;
    PyObject *add = old || !PyErr_Occurred() ? PyLong_FromSsize_t(st->run) : NULL;
    sum = add == NULL || old == NULL ? Py_XNewRef(add) : PyNumber_Add(old, add);
    int rc = sum == NULL ? -1 : PyDict_SetItem(st->totals, st->run_key, sum);
    Py_XDECREF(add);
    Py_XDECREF(sum);
    st->run = 0;
    return rc;
}

/* ``o.name`` as a long long into *out*, or (*set*) from it. */
static int
attr_ll(PyObject *o, PyObject *name, long long *out, int set)
{
    PyObject *v = set ? PyLong_FromLongLong(*out) : PyObject_GetAttr(o, name);
    int rc = v == NULL ? -1 : set ? PyObject_SetAttr(o, name, v)
        : ((*out = PyLong_AsLongLong(v)) == -1 && PyErr_Occurred()) ? -1 : 0;
    Py_XDECREF(v);
    return rc;
}

/* Count one event: its type into the run (a run of one type is one
 * totals update), and at a cycle >= 0 into its series, grown through
 * ``_grow`` first when the cycle is past them. */
static int
fold_one(Fold *st, PyObject *e)
{
    PyObject *t = PyTuple_GET_ITEM(e, F_TYPE);
    if (t != st->run_key) {
        if (run_close(st) < 0)
            return -1;
        Py_XSETREF(st->run_key, Py_NewRef(t));
    }
    st->run++;
    int overflow = 0;
    long long c = PyLong_AsLongLong(PyTuple_GET_ITEM(e, F_CYCLE)), code, vault;
    if ((c == -1 && PyErr_Occurred())
        || ((code = PyLong_AsLongLongAndOverflow(t, &overflow)) == -1 && PyErr_Occurred()))
        return -1;
    if (c < 0)
        return 0;
    if (c > st->mx)
        st->mx = c;
    if (c >= st->cap) {
        series_close(st);
        PyObject *r = PyObject_CallMethod(st->stats, "_grow", "L", c);
        Py_XDECREF(r);
        if (r == NULL || attr_ll(st->stats, s_cap, &st->cap, 0) < 0 || series_open(st) < 0)
            return -1;
    }
    for (int i = 0; !overflow && i < st->ns; i++) {
        Py_ssize_t at = c;
        if (st->code[i] != code)
            continue;
        if (st->view[i].ndim == 2) {
            vault = PyLong_AsLongLongAndOverflow(PyTuple_GET_ITEM(e, F_VAULT), &overflow);
            if (overflow || vault < 0 || vault >= st->nv)
                return PyErr_Occurred() ? -1 : 0;
            at = c * st->nv + vault;
        }
        if (at >= st->view[i].len / 8)
            return PyErr_SetString(PyExc_IndexError, "cycle past a TraceStats series"), -1;
        ((long long *)st->view[i].buf)[at]++;
        break;
    }
    return 0;
}

static PyObject *
fold(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "fold(stats, entries)");
    Fold st = {.stats = args[0]};
    PyObject *seq = PySequence_Tuple(args[1]);
    Py_ssize_t n = 0, i = -1;
    if (seq != NULL && (st.totals = PyObject_GetAttr(st.stats, s_totals)) != NULL
        && attr_ll(st.stats, s_num_vaults, &st.nv, 0) == 0
        && attr_ll(st.stats, s_cap, &st.cap, 0) == 0
        && attr_ll(st.stats, s_max_cycle, &st.mx, 0) == 0
        && attr_ll(st.stats, s_events_seen, &st.seen, 0) == 0 && series_open(&st) == 0)
        for (n = PyTuple_GET_SIZE(seq), i = 0; i < n; i++) {
            PyObject *e = entry(seq, i);
            int bad = e == NULL || fold_one(&st, e) < 0;
            Py_XDECREF(e);
            if (bad)
                break;
        }
    st.seen += n;
    int ok = i == n && run_close(&st) == 0 && attr_ll(st.stats, s_max_cycle, &st.mx, 1) == 0
        && attr_ll(st.stats, s_events_seen, &st.seen, 1) == 0;
    series_close(&st);
    Py_XDECREF(st.run_key);
    Py_XDECREF(st.totals);
    Py_XDECREF(seq);
    return ok ? Py_NewRef(Py_None) : NULL;
}

static PyObject *
bind(PyObject *mod, PyObject *args)
{
    if (!PyArg_ParseTuple(args, "OOO", &trace_error, &pack_type, &extras_json))
        return NULL;
    Py_INCREF(trace_error);
    Py_INCREF(pack_type);
    Py_INCREF(extras_json);
    Py_RETURN_NONE;
}

static PyMethodDef module_defs[] = {
    {"bind", bind, METH_VARARGS, "bind(BinaryTraceError, pack_type, extras_json)\n--\n\n"
     "Hand over the error class and the Python the encoder calls back."},
    {"encode", encode, METH_O, "encode(entries)\n--\n\nA trace batch's binary "
     "records as one bytes, or BinaryTraceError naming a field that does not fit."},
    {"fold", (PyCFunction)(void (*)(void))fold, METH_FASTCALL, "fold(stats, entries)\n"
     "--\n\nAdd a trace batch to a TraceStats's totals and Figure 5 series."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_tracecodec",
    "The binary trace encoder and the Figure 5 counter fold, in C.", -1, module_defs,
};

PyMODINIT_FUNC
PyInit__tracecodec(void)
{
#define I(var, text) if ((var = PyUnicode_InternFromString(text)) == NULL) return NULL;
    I(s_as_tuple, "as_tuple") I(s_totals, "_totals") I(s_global, "_global")
    I(s_vault, "_vault") I(s_num_vaults, "num_vaults") I(s_cap, "_cap")
    I(s_max_cycle, "_max_cycle") I(s_events_seen, "_events_seen")
#undef I
    return PyModule_Create(&module);
}
