"""The MiniScript VM: a guest bytecode interpreter written in MiniC.

This is the guest half of the interpreter-under-DIFT experiments
(ROADMAP item 5): a stack-bytecode virtual machine, written in MiniC
and compiled/instrumented by our own SHIFT pipeline, that executes
MiniScript request handlers (compiled host-side by
:mod:`repro.guestvm.asm`).  The bytecode container is embedded in the
VM's source as a ``char code[]`` initialiser — static guest data, like
any interpreter binary's embedded script — so the only tainted bytes
are the request bytes arriving over the simulated network.

Why this is the hard case for DIFT: the request bytes stop being
operands of the *protected program* and become data of a program the
protected program merely interprets.  Between the ``recv`` buffer and
the ``sql_exec``/``send`` use points the bytes pass through the VM's
fetch/decode/dispatch loop, its operand stack, its string arena, and
(for stored values) its persistent key-value heap — five layers of
copy-indirection that pattern-matching trackers lose.  SHIFT does not,
because every one of those copies is an instrumented load/store pair
that moves the tag bits with the data.

Two vulnerable services ship as MiniScript programs:

* **key-value store** (:data:`KV_SERVICE_SCRIPT`): a query
  mini-language (``SET k v`` / ``GET k`` / ``PGET k``).  ``GET``
  concatenates the tainted key into the SQL text — the injection
  policy H3 fires at the ``sql`` use point.  ``PGET`` is the
  parameterized control: the query string is a constant with a ``?``
  placeholder and the key is bound out of band, so the same attack
  bytes produce no alert.
* **templating handler** (:data:`TEMPLATE_SERVICE_SCRIPT`): ``RAW v``
  interpolates the tainted value into the HTML page unescaped — the
  XSS policy H5 fires when the page leaves via ``send``.  ``ESC v`` is
  the control: entity-escaping (inside the VM, by the ``ESCAPE``
  opcode) rewrites ``<`` before it can form a script tag, so the same
  payload is served harmlessly.
* **ping service** (:data:`PING_SERVICE_SCRIPT`): ``PING host`` builds
  ``ping -c 1 <host>`` by concatenation and shells out via the
  ``system`` native — a tainted shell metacharacter in the host fires
  the command-injection policy H4 at the use point.  ``VPING host`` is
  the control: the script charset-validates the host (letters, digits,
  dot, dash) before shelling out, so the same attack bytes are
  rejected in-script and a benign tainted host runs without alert.
"""

from __future__ import annotations

from typing import Dict

from repro.guestvm.asm import Assembled, assemble

#: Capacity of the VM's response buffer (bytes actually emittable).
RESPONSE_LIMIT = 2000
#: recv() bound for one request.
REQUEST_LIMIT = 1000

# ---------------------------------------------------------------------------
# The VM itself (MiniC).  @CODE@/@CODELEN@ are replaced per service with
# the assembled bytecode container.
# ---------------------------------------------------------------------------

GUESTVM_TEMPLATE = """
native int accept();
native int recv(int fd, char *buf, int n);
native int send(int fd, char *buf, int n);
native int sql_exec(char *q);
native int system(char *cmd);
native char *memset(char *dst, int c, int n);
native void console_log(char *s);

// The MiniScript bytecode container (host-assembled, static data).
char code[@CODELEN@] = {@CODE@};

char reqbuf[1024];
char respbuf[2048];
char arena[6144];      // per-request string heap (scrubbed after use)
char kvheap[4096];     // persistent key-value arena (lives across requests)
char sqlbuf[768];      // NUL-terminated staging for sql_exec/console_log
char parambuf[512];    // out-of-band binding area for parameterized queries

int resp_len;
int arena_top;
int vm_err;            // 0 ok, 1 structural, 2 runaway script
int code_addr;

// container layout (parsed once at boot)
int nconsts;
int nfuncs;
int code_start;        // index of the first code byte inside code[]
int code_len;
int const_addr[48];
int const_len[48];
int func_off[16];

// string handle table: handle -> (address, length)
int s_addr[160];
int s_len[160];
int s_count;
int const_handle[48];  // per-request memoized handles for PUSHC

// operand stack (value, tag: 0=int 1=string handle) and call stack
int sv[64];
int st[64];
int sp;
int calls[16];
int csp;

// script variable slots
int var_v[32];
int var_t[32];

// key-value store: entry -> (key addr/len, value addr/len) in kvheap
int kv_key_addr[48];
int kv_key_len[48];
int kv_val_addr[48];
int kv_val_len[48];
int kv_count;
int kv_top;

// vpop() results (MiniC has single return values)
int pv;
int pt;

int served;

int u16at(int i) {
    return (code[i] & 255) | ((code[i + 1] & 255) << 8);
}

int vm_boot() {
    code_addr = (int)&code;
    if ((code[0] & 255) != 77 || (code[1] & 255) != 83
            || (code[2] & 255) != 66 || (code[3] & 255) != 49) {
        return -1;
    }
    nconsts = code[5] & 255;
    nfuncs = code[6] & 255;
    code_len = u16at(8);
    int pos = 10;
    int i = 0;
    while (i < nconsts) {
        int l = u16at(pos);
        const_addr[i] = code_addr + pos + 2;
        const_len[i] = l;
        pos = pos + 2 + l;
        i++;
    }
    i = 0;
    while (i < nfuncs) {
        func_off[i] = u16at(pos);
        pos = pos + 2;
        i++;
    }
    code_start = pos;
    return 0;
}

int new_handle(int addr, int len) {
    if (s_count >= 160) {
        vm_err = 1;
        return 0;
    }
    s_addr[s_count] = addr;
    s_len[s_count] = len;
    s_count++;
    return s_count - 1;
}

int arena_alloc(int n) {
    if (arena_top + n > 6144) {
        vm_err = 1;
        return (int)&arena;
    }
    int addr = (int)&arena + arena_top;
    arena_top = arena_top + n;
    return addr;
}

// Copy n bytes from src into the arena as a fresh string.  Byte-by-byte
// instrumented stores: the copied bytes keep their taint tags.
int str_from(char *src, int n) {
    int addr = arena_alloc(n);
    char *dst = (char *)addr;
    int i = 0;
    while (i < n) {
        dst[i] = src[i];
        i++;
    }
    return new_handle(addr, n);
}

int tostr_h(int v) {
    int addr = arena_alloc(24);
    int n = write_int((char *)addr, v);
    return new_handle(addr, n);
}

int coerce_str(int v, int t) {
    if (t == 1) {
        return v;
    }
    return tostr_h(v);
}

int concat_h(int a, int b) {
    int la = s_len[a];
    int lb = s_len[b];
    int addr = arena_alloc(la + lb);
    char *dst = (char *)addr;
    char *pa = (char *)s_addr[a];
    char *pb = (char *)s_addr[b];
    int i = 0;
    while (i < la) {
        dst[i] = pa[i];
        i++;
    }
    int j = 0;
    while (j < lb) {
        dst[la + j] = pb[j];
        j++;
    }
    return new_handle(addr, la + lb);
}

int streq(int a, int b) {
    if (s_len[a] != s_len[b]) {
        return 0;
    }
    char *pa = (char *)s_addr[a];
    char *pb = (char *)s_addr[b];
    int i = 0;
    while (i < s_len[a]) {
        if (pa[i] != pb[i]) {
            return 0;
        }
        i++;
    }
    return 1;
}

int find_h(int hay, int nee) {
    int lh = s_len[hay];
    int ln = s_len[nee];
    char *ph = (char *)s_addr[hay];
    char *pn = (char *)s_addr[nee];
    if (ln == 0) {
        return 0;
    }
    int i = 0;
    while (i + ln <= lh) {
        int j = 0;
        while (j < ln && ph[i + j] == pn[j]) {
            j++;
        }
        if (j == ln) {
            return i;
        }
        i++;
    }
    return 0 - 1;
}

int slice_h(int s, int a, int b) {
    int l = s_len[s];
    if (a < 0) {
        a = 0;
    }
    if (b > l) {
        b = l;
    }
    if (b < a) {
        b = a;
    }
    char *src = (char *)s_addr[s];
    return str_from(src + a, b - a);
}

int toint_h(int s) {
    char *p = (char *)s_addr[s];
    int l = s_len[s];
    int i = 0;
    int neg = 0;
    int v = 0;
    while (i < l && p[i] == ' ') {
        i++;
    }
    if (i < l && p[i] == '-') {
        neg = 1;
        i++;
    }
    while (i < l && p[i] >= '0' && p[i] <= '9') {
        v = v * 10 + (p[i] - '0');
        i++;
    }
    if (neg) {
        return 0 - v;
    }
    return v;
}

// HTML entity escaping — the control arm of the XSS experiment.  The
// escaped output is still *tainted* (it is copied from tainted input),
// but '<' can no longer open a script tag, so policy H5 stays quiet.
int escape_h(int s) {
    int l = s_len[s];
    char *src = (char *)s_addr[s];
    // worst case every byte expands to 5 ("&#34;")
    int addr = arena_alloc(l * 5 + 1);
    char *dst = (char *)addr;
    int i = 0;
    int o = 0;
    while (i < l) {
        char c = src[i];
        if (c == '<') {
            dst[o] = '&'; dst[o + 1] = 'l'; dst[o + 2] = 't';
            dst[o + 3] = ';';
            o = o + 4;
        } else if (c == '>') {
            dst[o] = '&'; dst[o + 1] = 'g'; dst[o + 2] = 't';
            dst[o + 3] = ';';
            o = o + 4;
        } else if (c == '&') {
            dst[o] = '&'; dst[o + 1] = 'a'; dst[o + 2] = 'm';
            dst[o + 3] = 'p'; dst[o + 4] = ';';
            o = o + 5;
        } else if (c == 34) {
            dst[o] = '&'; dst[o + 1] = '#'; dst[o + 2] = '3';
            dst[o + 3] = '4'; dst[o + 4] = ';';
            o = o + 5;
        } else if (c == 39) {
            dst[o] = '&'; dst[o + 1] = '#'; dst[o + 2] = '3';
            dst[o + 3] = '9'; dst[o + 4] = ';';
            o = o + 5;
        } else {
            dst[o] = c;
            o++;
        }
        i++;
    }
    return new_handle(addr, o);
}

int kv_set(int k, int v) {
    if (kv_count >= 48) {
        vm_err = 1;
        return 0;
    }
    int lk = s_len[k];
    int lv = s_len[v];
    if (kv_top + lk + lv > 4096) {
        vm_err = 1;
        return 0;
    }
    char *src = (char *)s_addr[k];
    int i = 0;
    while (i < lk) {
        kvheap[kv_top + i] = src[i];
        i++;
    }
    kv_key_addr[kv_count] = (int)&kvheap + kv_top;
    kv_key_len[kv_count] = lk;
    kv_top = kv_top + lk;
    src = (char *)s_addr[v];
    i = 0;
    while (i < lv) {
        kvheap[kv_top + i] = src[i];
        i++;
    }
    kv_val_addr[kv_count] = (int)&kvheap + kv_top;
    kv_val_len[kv_count] = lv;
    kv_top = kv_top + lv;
    kv_count++;
    return 1;
}

// Latest write wins: scan newest to oldest.
int kv_get(int k) {
    int lk = s_len[k];
    char *pk = (char *)s_addr[k];
    int e = kv_count - 1;
    while (e >= 0) {
        if (kv_key_len[e] == lk) {
            char *ek = (char *)kv_key_addr[e];
            int i = 0;
            while (i < lk && ek[i] == pk[i]) {
                i++;
            }
            if (i == lk) {
                return new_handle(kv_val_addr[e], kv_val_len[e]);
            }
        }
        e--;
    }
    return new_handle((int)&kvheap, 0);
}

int emit_h(int s) {
    int l = s_len[s];
    char *src = (char *)s_addr[s];
    int i = 0;
    while (i < l && resp_len < @RESPLIMIT@) {
        respbuf[resp_len] = src[i];
        resp_len++;
        i++;
    }
    return i;
}

// Stage a VM string as a NUL-terminated C string for a native call.
int to_cstr(int s, char *dst, int cap) {
    int l = s_len[s];
    if (l > cap - 1) {
        l = cap - 1;
    }
    char *src = (char *)s_addr[s];
    int i = 0;
    while (i < l) {
        dst[i] = src[i];
        i++;
    }
    dst[l] = 0;
    return l;
}

int vpop() {
    if (sp <= 0) {
        vm_err = 1;
        pv = 0;
        pt = 0;
        return 0;
    }
    sp--;
    pv = sv[sp];
    pt = st[sp];
    return pv;
}

int push_i(int v) {
    if (sp >= 64) {
        vm_err = 1;
        return 0;
    }
    sv[sp] = v;
    st[sp] = 0;
    sp++;
    return 0;
}

int push_s(int h) {
    if (sp >= 64) {
        vm_err = 1;
        return 0;
    }
    sv[sp] = h;
    st[sp] = 1;
    sp++;
    return 0;
}

// The fetch/decode/dispatch loop: the indirection DIFT must survive.
int vm_run() {
    int pc = code_start;
    int steps = 0;
    int limit = code_start + code_len;
    while (vm_err == 0) {
        steps++;
        if (steps > 200000 || pc < code_start || pc >= limit) {
            vm_err = 2;
            return -1;
        }
        int op = code[pc] & 255;
        pc++;
        if (op == 0) {              // HALT
            return 0;
        } else if (op == 1) {       // PUSHI
            int v = (code[pc] & 255) | ((code[pc + 1] & 255) << 8)
                  | ((code[pc + 2] & 255) << 16)
                  | ((code[pc + 3] & 255) << 24);
            if (v >= 2147483648) {
                v = v - 4294967296;
            }
            pc = pc + 4;
            push_i(v);
        } else if (op == 2) {       // PUSHC
            int idx = code[pc] & 255;
            pc++;
            if (idx >= nconsts) {
                vm_err = 1;
            } else {
                if (const_handle[idx] < 0) {
                    const_handle[idx] = new_handle(const_addr[idx],
                                                   const_len[idx]);
                }
                push_s(const_handle[idx]);
            }
        } else if (op == 3) {       // ARG: the request string is handle 0
            push_s(0);
        } else if (op == 4) {       // LOAD
            int slot = code[pc] & 255;
            pc++;
            if (var_t[slot] == 1) {
                push_s(var_v[slot]);
            } else {
                push_i(var_v[slot]);
            }
        } else if (op == 5) {       // STORE
            int slot = code[pc] & 255;
            pc++;
            vpop();
            var_v[slot] = pv;
            var_t[slot] = pt;
        } else if (op == 6) {       // DUP
            vpop();
            int v = pv;
            int t = pt;
            if (t == 1) {
                push_s(v);
                push_s(v);
            } else {
                push_i(v);
                push_i(v);
            }
        } else if (op == 7) {       // POP
            vpop();
        } else if (op == 8) {       // ADD: ints add, strings concatenate
            vpop();
            int bv = pv;
            int bt = pt;
            vpop();
            int av = pv;
            int at = pt;
            if (at == 0 && bt == 0) {
                push_i(av + bv);
            } else {
                push_s(concat_h(coerce_str(av, at), coerce_str(bv, bt)));
            }
        } else if (op >= 9 && op <= 12) {   // SUB MUL DIV MOD
            vpop();
            int bv = pv;
            vpop();
            int av = pv;
            if (op == 9) {
                push_i(av - bv);
            } else if (op == 10) {
                push_i(av * bv);
            } else if (bv == 0) {
                vm_err = 1;
            } else if (op == 11) {
                push_i(av / bv);
            } else {
                push_i(av % bv);
            }
        } else if (op == 13 || op == 14) {  // EQ NE
            vpop();
            int bv = pv;
            int bt = pt;
            vpop();
            int av = pv;
            int at = pt;
            int eq = 0;
            if (at == 1 && bt == 1) {
                eq = streq(av, bv);
            } else if (at == 0 && bt == 0) {
                if (av == bv) {
                    eq = 1;
                }
            }
            if (op == 14) {
                eq = 1 - eq;
            }
            push_i(eq);
        } else if (op >= 15 && op <= 18) {  // LT LE GT GE
            vpop();
            int bv = pv;
            vpop();
            int av = pv;
            int r = 0;
            if (op == 15 && av < bv) {
                r = 1;
            }
            if (op == 16 && av <= bv) {
                r = 1;
            }
            if (op == 17 && av > bv) {
                r = 1;
            }
            if (op == 18 && av >= bv) {
                r = 1;
            }
            push_i(r);
        } else if (op == 19) {      // JMP
            pc = code_start + u16at(pc);
        } else if (op == 20) {      // JZ
            int target = u16at(pc);
            pc = pc + 2;
            vpop();
            int truth = pv;
            if (pt == 1) {
                truth = s_len[pv];
            }
            if (truth == 0) {
                pc = code_start + target;
            }
        } else if (op == 21) {      // LEN
            vpop();
            push_i(s_len[pv]);
        } else if (op == 22) {      // INDEX
            vpop();
            int i = pv;
            vpop();
            int s = pv;
            if (i < 0 || i >= s_len[s]) {
                push_i(0);
            } else {
                char *p = (char *)s_addr[s];
                push_i(p[i] & 255);
            }
        } else if (op == 23) {      // FIND
            vpop();
            int nee = pv;
            vpop();
            push_i(find_h(pv, nee));
        } else if (op == 24) {      // SLICE
            vpop();
            int b = pv;
            vpop();
            int a = pv;
            vpop();
            push_s(slice_h(pv, a, b));
        } else if (op == 25) {      // TOINT
            vpop();
            push_i(toint_h(pv));
        } else if (op == 26) {      // TOSTR
            vpop();
            push_s(tostr_h(pv));
        } else if (op == 27) {      // ESCAPE
            vpop();
            push_s(escape_h(pv));
        } else if (op == 28) {      // KVGET
            vpop();
            push_s(kv_get(pv));
        } else if (op == 29) {      // KVSET
            vpop();
            int v = pv;
            vpop();
            push_i(kv_set(pv, v));
        } else if (op == 30) {      // SQL: the H3 use point
            vpop();
            to_cstr(pv, sqlbuf, 768);
            push_i(sql_exec(sqlbuf));
        } else if (op == 31) {      // SQLP: parameterized query
            vpop();
            int param = pv;
            vpop();
            int query = pv;
            // The binding is staged out of band; only the constant
            // query text (with its ? placeholder) reaches the engine.
            to_cstr(param, parambuf, 512);
            to_cstr(query, sqlbuf, 768);
            push_i(sql_exec(sqlbuf));
        } else if (op == 32) {      // EMIT
            vpop();
            push_i(emit_h(pv));
        } else if (op == 33) {      // LOG
            vpop();
            to_cstr(pv, sqlbuf, 768);
            console_log(sqlbuf);
            push_i(0);
        } else if (op == 34) {      // CALL
            int idx = code[pc] & 255;
            pc++;
            if (idx >= nfuncs || csp >= 16) {
                vm_err = 1;
            } else {
                calls[csp] = pc;
                csp++;
                pc = code_start + func_off[idx];
            }
        } else if (op == 35) {      // RET
            if (csp <= 0) {
                vm_err = 1;
            } else {
                csp--;
                pc = calls[csp];
            }
        } else if (op == 36) {      // SYSTEM: the H4 use point
            vpop();
            to_cstr(pv, sqlbuf, 768);
            push_i(system(sqlbuf));
        } else {
            vm_err = 1;
        }
    }
    return -1;
}

// Scrub every request-derived byte (data *and* taint tags go to zero,
// since memset's fill is an untainted constant).  The kvheap survives:
// values a SET stored stay live — and stay tainted — by design.
int scrub() {
    memset(reqbuf, 0, 1024);
    memset(respbuf, 0, 2048);
    memset(sqlbuf, 0, 768);
    memset(parambuf, 0, 512);
    memset(arena, 0, arena_top);
    memset((char *)&sv, 0, 512);
    memset((char *)&var_v, 0, 256);
    arena_top = 0;
    return 0;
}

int handle(int fd) {
    int n = recv(fd, reqbuf, @REQLIMIT@);
    if (n <= 0) {
        return 0;
    }
    reqbuf[n] = 0;
    sp = 0;
    csp = 0;
    s_count = 0;
    arena_top = 0;
    resp_len = 0;
    vm_err = 0;
    int i = 0;
    while (i < 32) {
        var_v[i] = 0;
        var_t[i] = 0;
        i++;
    }
    i = 0;
    while (i < 48) {
        const_handle[i] = 0 - 1;
        i++;
    }
    str_from(reqbuf, n);   // handle 0: the (tainted) request string
    vm_run();
    if (vm_err != 0) {
        resp_len = 0;
        respbuf[0] = 'E';
        respbuf[1] = 'R';
        respbuf[2] = 'R';
        respbuf[3] = ' ';
        respbuf[4] = 'v';
        respbuf[5] = 'm';
        respbuf[6] = (char)('0' + vm_err);
        resp_len = 7;
    }
    send(fd, respbuf, resp_len);   // the H5 use point
    scrub();
    return 1;
}

int main() {
    if (vm_boot() != 0) {
        return -1;
    }
    int fd;
    while ((fd = accept()) >= 0) {
        served += handle(fd);
    }
    return served;
}
"""


def render_guestvm(blob: bytes) -> str:
    """Render the VM's MiniC source around an assembled bytecode blob."""
    numbers = [str(b) for b in blob]
    lines = []
    for i in range(0, len(numbers), 24):
        lines.append(", ".join(numbers[i:i + 24]))
    literal = ",\n    ".join(lines)
    return (GUESTVM_TEMPLATE
            .replace("@CODELEN@", str(len(blob)))
            .replace("@CODE@", "\n    " + literal + "\n")
            .replace("@RESPLIMIT@", str(RESPONSE_LIMIT))
            .replace("@REQLIMIT@", str(REQUEST_LIMIT)))


# ---------------------------------------------------------------------------
# The two vulnerable services (MiniScript).
# ---------------------------------------------------------------------------

#: Key-value store with a query mini-language (paper Table 1, H3).
KV_SERVICE_SCRIPT = """
# kv service: SET <key> <value> | GET <key> | PGET <key>
let req = arg;
let sp = find(req, " ");
if sp < 0 {
  emit("ERR bad request");
} else {
  let verb = slice(req, 0, sp);
  let rest = slice(req, sp + 1, len(req));
  if verb == "SET" {
    let sp2 = find(rest, " ");
    if sp2 < 0 {
      emit("ERR SET needs key and value");
    } else {
      kvset(slice(rest, 0, sp2), slice(rest, sp2 + 1, len(rest)));
      emit("OK");
    }
  } else if verb == "GET" {
    # VULNERABLE: the tainted key is concatenated into the SQL text.
    sql("SELECT v FROM kv WHERE k='" + rest + "'");
    emit("VALUE " + kvget(rest));
  } else if verb == "PGET" {
    # CONTROL: parameterized query — the key never enters the string.
    sqlparam("SELECT v FROM kv WHERE k=?", rest);
    emit("VALUE " + kvget(rest));
  } else {
    emit("ERR unknown verb");
  }
}
"""

#: Templating handler emitting HTML (paper Table 1, H5).
TEMPLATE_SERVICE_SCRIPT = """
# template service: RAW <name> | ESC <name>
let req = arg;
let raw = 0;
let who = "";
let sp = find(req, " ");
if sp < 0 {
  emit("ERR bad request");
} else {
  let verb = slice(req, 0, sp);
  who = slice(req, sp + 1, len(req));
  if verb == "RAW" {
    # VULNERABLE: tainted value interpolated into the page unescaped.
    raw = 1;
    render();
  } else if verb == "ESC" {
    # CONTROL: entity-escaped inside the VM before interpolation.
    render();
  } else {
    emit("ERR unknown verb");
  }
}

def render {
  emit("<html><body><p>Hello ");
  if raw == 1 {
    emit(who);
  } else {
    emit(escape(who));
  }
  emit("</p></body></html>");
}
"""

#: Diagnostic shell-out handler (paper Table 1, H4).
PING_SERVICE_SCRIPT = """
# ping service: PING <host> | VPING <host>
let req = arg;
let host = "";
let ok = 0;
let sp = find(req, " ");
if sp < 0 {
  emit("ERR bad request");
} else {
  let verb = slice(req, 0, sp);
  host = slice(req, sp + 1, len(req));
  if verb == "PING" {
    # VULNERABLE: the tainted host rides into the shell command text.
    system("ping -c 1 " + host);
    emit("PONG " + host);
  } else if verb == "VPING" {
    # CONTROL: charset-validate the host before shelling out.  The
    # command is still built from tainted bytes, but none of them can
    # be a shell metacharacter, so H4 stays quiet.
    validate();
    if ok == 1 {
      system("ping -c 1 " + host);
      emit("PONG " + host);
    } else {
      emit("ERR bad host");
    }
  } else {
    emit("ERR unknown verb");
  }
}

def validate {
  ok = 1;
  let i = 0;
  while i < len(host) {
    let c = char(host, i);
    let good = 0;
    if c >= 97 { if c <= 122 { good = 1; } }
    if c >= 48 { if c <= 57 { good = 1; } }
    if c == 46 { good = 1; }
    if c == 45 { good = 1; }
    if good == 0 { ok = 0; }
    i = i + 1;
  }
  if len(host) == 0 { ok = 0; }
}
"""

_assembled_cache: Dict[str, Assembled] = {}


def assembled_service(script: str) -> Assembled:
    """Assemble (and cache) one of the service scripts."""
    cached = _assembled_cache.get(script)
    if cached is None:
        cached = assemble(script)
        _assembled_cache[script] = cached
    return cached


#: Ready-to-compile MiniC sources, one VM per service.
GUESTVM_KV_SOURCE = render_guestvm(assembled_service(KV_SERVICE_SCRIPT).blob)
GUESTVM_TMPL_SOURCE = render_guestvm(
    assembled_service(TEMPLATE_SERVICE_SCRIPT).blob)
GUESTVM_PING_SOURCE = render_guestvm(
    assembled_service(PING_SERVICE_SCRIPT).blob)


# ---------------------------------------------------------------------------
# Request builders (campaign + test vocabulary).
# ---------------------------------------------------------------------------


def kv_set_request(key: str, value: str) -> bytes:
    """Store a value (clean traffic; the stored bytes stay tainted)."""
    return f"SET {key} {value}".encode()


def kv_get_request(key: str) -> bytes:
    """Look a key up via the *vulnerable* concatenated query."""
    return f"GET {key}".encode()


def kv_pget_request(key: str) -> bytes:
    """Look a key up via the parameterized control path."""
    return f"PGET {key}".encode()


def sql_injection_request(key: str = "x' OR '1'='1") -> bytes:
    """Classic injection: tainted quotes break out of the key literal."""
    return kv_get_request(key)


def template_request(name: str, escaped: bool = False) -> bytes:
    """Render a page (RAW = vulnerable, ESC = escaped control)."""
    verb = "ESC" if escaped else "RAW"
    return f"{verb} {name}".encode()


def xss_request(payload: str = "<script>alert(1)</script>") -> bytes:
    """Classic stored-nothing XSS: tainted script tag in the output."""
    return template_request(payload, escaped=False)


def ping_request(host: str, validated: bool = False) -> bytes:
    """Shell out to ping (PING = vulnerable, VPING = validated)."""
    verb = "VPING" if validated else "PING"
    return f"{verb} {host}".encode()
