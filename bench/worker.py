"""One workload's closed-loop caller, run as a fresh child process.

Usage: python3 bench/worker.py [--probe]

The worker imports goeritz from the checkout's src/ and says "ready";
with --probe it then exits (that start-up is the set-up time). Otherwise
it reads JSON commands on stdin, one per line, and answers on stdout:

  {"op": "load", "workload": w, "seed": n, "warmup": bool, "out_dir": dir}
                              -> {"ok": true}   (the worker makes the
                                 subjects itself, as run.py does)
  {"op": "run", "start": i}   -> one line per subject i, i+1, ..., then
                                 {"done": true, "rss_kb": peak resident KB}
  {"op": "trace"}             -> {"ok": true}   (spans on from here)
  {"op": "trace_report", "spans_path": path} -> {"metrics": {...}}
                                 (spans off, written to spans_path)
  {"op": "exit"}

Subjects run one after another; the next starts when the previous has
returned. A CLI subject's stdout goes to out_dir/<i>.out, where the
parent reads it; only the call itself is timed.
"""

import contextlib
import io
import itertools
import json
import os
import resource
import sys
import time
import traceback

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")


def _send(proto, msg) -> None:
    proto.write(json.dumps(msg) + "\n")
    proto.flush()


def _peak_rss_kb() -> int:
    """This process's own peak resident memory. ru_maxrss is not that on
    Linux: a child started with fork or vfork and exec inherits the
    parent's peak there, while VmHWM belongs to the child's own memory."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_cli(subject, path, tracer):
    from goeritz import cli

    err = io.StringIO()
    with open(path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(subject["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        out.flush()
        dt = time.perf_counter() - t0
        size = out.tell()
    if tracer is not None:
        tracer.counts["cli.out_bytes"] += size
        if subject["kind"] == "report":
            tracer.counts["report.json_bytes"] += size
    return {"dt": dt, "rc": rc, "stderr": err.getvalue()[-500:]}


def _run_catalog(subject):
    """The README's Library section, for one (p, q)."""
    import goeritz as G
    from goeritz.classify import DisconnectedComplexError

    t0 = time.perf_counter()
    params = G.make_params(subject["p"], subject["q"])
    structure = G.classify(params)
    try:
        pres = G.goeritz_presentation(params)
    except DisconnectedComplexError:
        return {"dt": time.perf_counter() - t0, "connected": structure.connected, "refused": True}
    amalgam = G.amalgam_decomposition(params)
    ab = G.abelianize_presentation(pres)
    rendered = 0
    for fmt in ("text", "gap", "json"):
        rendered += len(G.render(pres, fmt)) + len(G.render(amalgam, fmt))
    dt = time.perf_counter() - t0
    return {"dt": dt, "connected": structure.connected, "refused": False,
            "abelianization": ab.text(), "rendered": rendered}


def main() -> None:
    if not os.path.isfile(os.path.join(_SRC, "goeritz", "__init__.py")):
        sys.stderr.write(f"error: no goeritz package under {_SRC}\n")
        sys.exit(2)
    sys.path.insert(0, _SRC)
    import goeritz  # noqa: F401  -- set-up ends here

    sys.stdout.write('{"ready": true}\n')
    sys.stdout.flush()
    if "--probe" not in sys.argv[1:]:
        serve(sys.stdin, sys.stdout)


def serve(commands, proto) -> None:
    import goeritz.cli  # noqa: F401

    import workloads
    from spans import Tracer

    subjects, out_dir, tracer = [], ".", None
    for line in commands:
        cmd = json.loads(line)
        op = cmd["op"]
        if op == "load":
            if cmd["warmup"]:
                subjects = workloads.WARMUP[cmd["workload"]]
            else:
                subjects = workloads.subject_source(cmd["workload"], cmd["seed"])
            out_dir = cmd["out_dir"]
            _send(proto, {"ok": True})
        elif op == "run":
            for i, subject in enumerate(itertools.islice(subjects, cmd["start"], None), cmd["start"]):
                if tracer is not None:
                    tracer.subject = i
                try:
                    if subject["kind"] == "catalog":
                        result = _run_catalog(subject)
                    else:
                        result = _run_cli(subject, os.path.join(out_dir, f"{i}.out"), tracer)
                except Exception as exc:  # a failed subject is reported, and the loop goes on
                    result = {"dt": 0.0, "error": f"{type(exc).__name__}: {exc}",
                              "traceback": traceback.format_exc(limit=-3)}
                result["i"] = i
                _send(proto, result)
            _send(proto, {"done": True, "rss_kb": _peak_rss_kb()})
        elif op == "trace":
            tracer = Tracer(workloads.enumerated_candidates)
            tracer.install()
            _send(proto, {"ok": True})
        elif op == "trace_report":
            tracer.remove()
            metrics = tracer.metrics()
            tracer.write(cmd["spans_path"])
            tracer = None
            _send(proto, {"metrics": metrics})
        elif op == "exit":
            return


if __name__ == "__main__":
    main()
