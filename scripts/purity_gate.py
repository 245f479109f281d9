#!/usr/bin/env python3
"""Machine-code purity gate for the lbmf primary fast paths.

The paper's claim is that with `l-mfence` the primary's fast path
carries no hardware fence. The hook-level proofs (`check_store.rs`,
`trace_fastpath.rs`) count instrumented operations and cannot see a
`lock`-prefixed counter increment, which on x86 is a full fence too.
This gate reads the machine code instead:

    python3 scripts/purity_gate.py

It builds the `lbmf-purity` package alone (so no dev-dependency can switch
on `lbmf/check-hooks`) into `$CARGO_TARGET_DIR` (default `target/`), runs
it once (every probe on a live object), disassembles every `lbmf_probe_*`
function with `objdump -d`, and walks each probe's calls: a callee on the
allowlist below (cold first-use, overflow, conflict and clock paths) is
reported and not entered; any other callee is checked like the probe
itself. It fails on

  * a `lock` prefix, an `xchg` with a memory operand, `mfence` or `cpuid`
    anywhere reachable;
  * a call or jump whose target it cannot resolve to a function.

`lbmf_probe_symmetric_primary_fence` is the negative control: its full
fence must be reported, or the gate is not reading the fast paths. (LLVM
lowers `fence(SeqCst)` on x86-64 to `lock or $0,(%rsp)`, not `mfence`;
both drain the store buffer, and the gate rejects both.)
Exit status: 0 when every probe is pure and the control is caught.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBES = [
    "lbmf_probe_signal_primary_fence",
    "lbmf_probe_membarrier_primary_fence",
    "lbmf_probe_store_get",
    "lbmf_probe_deque_push",
    "lbmf_probe_deque_pop",
    "lbmf_probe_arw_read",
    "lbmf_probe_dekker_primary_lock",
]
CONTROL = "lbmf_probe_symmetric_primary_fence"

# Callees the walk reports but does not enter, matched against the
# demangled function name. Each one is off the steady-state fast path.
ALLOWLIST = [
    # The trace clock: `now_nanos` reads the vDSO clock (and initializes
    # its epoch once). Only reached while recording is switched on.
    (r"^lbmf_trace::ring::now_nanos$", "trace clock read"),
    (r"^<std::time::Instant>::(now|elapsed)$", "trace clock read"),
    # First use on a thread: claim a counter row (a mutex), register the
    # thread's trace ring (a mutex and an allocation) and its destructor,
    # initialize a once-cell (the trace clock's epoch, the heat plane's
    # per-handle sketches when armed).
    (r"^lbmf::stats::Counter::bump_cold$",
     "counter first use, or a thread without a row: claims a row once, "
     "else the shared row's fetch_add"),
    (r"^lbmf_trace::ring::register_current_thread$", "trace ring first use"),
    (r"^std::sys::thread_local::destructors::\w+::register$", "TLS destructor first use"),
    (r"^std::sync::once_lock::OnceLock<T>::initialize$", "once-cell first use"),
    (r"^core::cell::once::OnceCell<T>::try_init$", "once-cell first use"),
    (r"^std::thread::local::panic_access_error$", "TLS accessed after destruction"),
    # Conflict paths: a secondary raced the primary. They take the lock
    # or fence by design, and run only under contention.
    (r"^lbmf_cilk::deque::TheDeque<S>::pop_conflict$", "THE pop conflict: deque lock + mfence"),
    (r"^lbmf::arw::ReaderHandle<S>::wait_out_writers$", "ARW read conflict: fence, ack, wait"),
    (r"^lbmf::dekker::Primary<S>::lock_contended$", "Dekker primary conflict: turn tie-break spin"),
    # Panics (index bounds, deque overflow): the operation is already lost.
    (r"^core::panicking::", "panic"),
    (r"^core::slice::index::", "panic: slice index"),
    (r"^core::option::(unwrap_failed|expect_failed)$", "panic: unwrap"),
]

FORBIDDEN = [
    (re.compile(r"^lock\b"), "lock prefix"),
    (re.compile(r"^xchg\w*\s.*\("), "xchg with memory"),
    (re.compile(r"^mfence\b"), "mfence"),
    (re.compile(r"^cpuid\b"), "cpuid"),
]

FUNC_RE = re.compile(r"^([0-9a-f]+) <(.+)>:$")
INSN_RE = re.compile(r"^\s*([0-9a-f]+):\s*(.*)$")
DIRECT_RE = re.compile(r"^(?:call|jmp|j[a-z]+)\w*\s+([0-9a-f]+) <(.+)>")
GOT_RE = re.compile(r"^(call|jmp)\w*\s+\*0x[0-9a-f]+\(%rip\)\s+#\s+([0-9a-f]+)")
INDIRECT_RE = re.compile(r"^(call|jmp)\w*\s+\*")


def build():
    cmd = ["cargo", "build", "--release", "--quiet", "-p", "lbmf-purity"]
    subprocess.run(cmd, cwd=ROOT, check=True)
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "target"))
    return os.path.join(target, "release", "lbmf-purity")


def disassemble(binary):
    """Functions by start address: {start: (name, end, [(addr, insn)])}.
    Keyed by address because two instantiations of one generic function
    demangle to the same name."""
    out = subprocess.run(["objdump", "-d", "-C", "--no-show-raw-insn", binary],
                         check=True, capture_output=True, text=True).stdout
    funcs, cur = {}, None
    for line in out.splitlines():
        m = FUNC_RE.match(line)
        if m:
            cur = int(m.group(1), 16)
            funcs[cur] = (m.group(2), [])
            continue
        m = INSN_RE.match(line)
        if m and cur is not None and m.group(2):
            funcs[cur][1].append((int(m.group(1), 16), m.group(2).strip()))
    return {a: (name, insns[-1][0] + 1 if insns else a, insns)
            for a, (name, insns) in funcs.items()}


def got_targets(binary, funcs):
    """GOT slot address -> function start address (inside the binary) or
    symbol name (a shared-library import)."""
    out = subprocess.run(["objdump", "-R", "-C", binary],
                         check=True, capture_output=True, text=True).stdout
    slots = {}
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) < 3 or not re.fullmatch(r"[0-9a-f]+", parts[0]):
            continue
        addr, kind, value = int(parts[0], 16), parts[1], parts[2]
        if kind == "R_X86_64_RELATIVE":
            target = int(value.split("+")[-1], 16)
            if target in funcs:
                slots[addr] = target
        elif kind in ("R_X86_64_GLOB_DAT", "R_X86_64_JUMP_SLOT"):
            slots[addr] = value.split("@")[0]
    return slots


def allowed(name):
    for pattern, why in ALLOWLIST:
        if re.search(pattern, name):
            return why
    return None


def callee(insn, slots, funcs, own_start, own_end):
    """Where an instruction transfers control outside its function: a
    function start address, an imported symbol's name, '' for nowhere (a
    local branch or not a branch), or None if it cannot be resolved."""
    m = DIRECT_RE.match(insn)
    if m:
        target, label = int(m.group(1), 16), m.group(2)
        if own_start <= target < own_end:
            return ""
        if label.endswith("@plt"):
            return label.removesuffix("@plt")
        return target if target in funcs else None
    m = GOT_RE.match(insn)
    if m:
        return slots.get(int(m.group(2), 16))
    if INDIRECT_RE.match(insn):
        return None
    return ""


def walk(probe, funcs, slots):
    """Check every function reachable from `probe` (a start address);
    return (violations, allowed calls, functions checked)."""
    violations, calls, seen, todo = [], set(), set(), [probe]
    while todo:
        start = todo.pop()
        if start in seen:
            continue
        seen.add(start)
        name, end, insns = funcs[start]
        for addr, insn in insns:
            for pattern, what in FORBIDDEN:
                if pattern.search(insn):
                    violations.append(f"{what} in {name} at {addr:x}: {insn}")
            target = callee(insn, slots, funcs, start, end)
            if target is None:
                violations.append(f"unresolved call in {name} at {addr:x}: {insn}")
            elif target != "":
                target_name = funcs[target][0] if target in funcs else target
                why = allowed(target_name)
                if why:
                    calls.add(f"{target_name} ({why})")
                elif target in funcs:
                    todo.append(target)
                else:
                    violations.append(f"call to import {target} in {name} at {addr:x}")
    return violations, sorted(calls), len(seen)


def main():
    binary = build()
    subprocess.run([binary], check=True, stdout=subprocess.DEVNULL)
    funcs = disassemble(binary)
    slots = got_targets(binary, funcs)
    by_name = {name: start for start, (name, _, _) in funcs.items()}
    ok = True
    for probe in PROBES + [CONTROL]:
        if probe not in by_name:
            print(f"FAIL {probe}: not found in {binary}")
            ok = False
            continue
        violations, calls, checked = walk(by_name[probe], funcs, slots)
        if probe == CONTROL:
            fences = [v for v in violations if v.startswith(("lock prefix", "mfence"))]
            print(f"{'ok  ' if fences else 'FAIL'} {probe} (negative control): "
                  + (f"full fence reported: {fences[0]}" if fences else "no fence reported"))
            ok &= bool(fences)
            continue
        print(f"{'FAIL' if violations else 'ok  '} {probe}: {checked} function(s) checked")
        for v in violations:
            print(f"       {v}")
        for c in calls:
            print(f"       allowed call: {c}")
        ok &= not violations
    print("purity gate: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
