#!/usr/bin/env python3
"""Builds one benchmark, runs it twice, checks the two runs agree, gates the
first run and installs it as BENCH_<name>.json at the repo root.

Usage: scripts/run_bench.py <name> [bench flags...]
  <name>           faults | kernels | sketch | mapreduce | recovery |
                   serve_net | streaming
  [bench flags]    passed through to the bench binary, e.g.
                   `faults --seed=7`, `mapreduce --quick=true`,
                   `kernels --benchmark_filter=BM_X`
  BUILD_DIR=<dir>  build directory (default: build); configured as Release
                   when it does not exist

Timings differ run to run, so the agreement check compares only the lines
matching the entry's digest regex. Lines, not JSON keys: the same lines pin
`checkpoint.bytes` and the `threads`/`simd` labels. `faults` is fully
deterministic and compares whole files; `kernels` (google-benchmark timings,
no digest) runs once.

Gates read run A by JSON path and fail when a field is missing. On top of
the table, every key ending in `bit_identical` must be true. Throughput and
speedup floors are tiered by the cores this process may run on, counted as
`nproc` counts them.

The installed file opens with a "provenance" object: the cores (`nproc`),
the SIMD level the kernels dispatch to, the build type, the compiler, and
the commit the build was made from ("dirty" when the tracked files differ
from it).
"""

import difflib
import glob
import json
import os
import re
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORES = len(os.sched_getaffinity(0))


def by_cores(eight_plus, two_to_seven, one):
    return eight_plus if CORES >= 8 else two_to_seven if CORES >= 2 else one


class Bench(NamedTuple):
    target: str
    # Regex selecting the lines two runs must share; None compares whole
    # files.
    digest: str | None = None
    # (path, op, bound); a string bound is another path in the same file.
    gates: tuple = ()
    out_flags: tuple = ("--out={}",)
    runs: int = 2


UPDATES_PER_SEC = by_cores(100000, 50000, 25000)

BENCHES = {
    "faults": Bench("fault_sweep"),
    "kernels": Bench("bench_micro_kernels",
                     out_flags=("--benchmark_out={}",
                                "--benchmark_out_format=json"),
                     runs=1),
    "sketch": Bench("bench_sketch", r"y_digest|bit_identical"),
    "mapreduce": Bench(
        "bench_mapreduce", r"output_digest|bit_identical",
        # On one core 8 oversubscribed threads cannot scale; the floor
        # becomes a contention guard against a serialized emit path.
        (("map_wall_speedup", ">=", by_cores(1.5, 1.1, 0.7)),)),
    "recovery": Bench(
        "bench_recovery", r"output_digest|bit_identical",
        (("determinism.bit_identical", "==", True),
         # DESIGN.md §14: AMP's per-iteration cost is flat in k, so it
         # must beat BOMP at the largest swept k.
         ("crossover.-1.amp_ms", "<", "crossover.-1.bomp_ms"),
         ("distributed.two_phase.savings_vs_fixed_pct", ">=", 30))),
    "serve_net": Bench(
        "bench_serve_net",
        r"framed_digest|inprocess_digest|bit_identical|restore_bit_identical",
        (("bit_identical", "==", True),
         ("checkpoint.restore_bit_identical", "==", True),
         ("throughput.updates_per_sec", ">=", UPDATES_PER_SEC))),
    "streaming": Bench(
        "bench_streaming",
        r"output_digest|reference_window_digest|bit_identical",
        (("throughput.updates_per_sec", ">=", UPDATES_PER_SEC),
         ("throughput.staleness_bound_held", "==", True),
         ("telemetry.overhead_pct", "<=", 2.0),
         ("telemetry.threaded.overhead_pct", "<=", 2.0))),
}

OPS = {
    "==": lambda a, b: a is b if isinstance(b, bool) else a == b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
}


class BenchFailure(Exception):
    pass


def get(doc, path):
    """The value at a dotted path; list indices may be negative."""
    try:
        for part in path.split("."):
            doc = doc[int(part)] if isinstance(doc, list) else doc[part]
    except (KeyError, IndexError, ValueError, TypeError):
        raise BenchFailure(f"no {path} in bench output") from None
    return doc


def bit_identical_failures(doc, path=""):
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = ((str(i), v) for i, v in enumerate(doc))
    else:
        return []
    failures = []
    for key, value in items:
        where = f"{path}.{key}" if path else key
        if key.endswith("bit_identical") and value is not True:
            failures.append(f"{where} is {json.dumps(value)}")
        failures += bit_identical_failures(value, where)
    return failures


def check_gates(bench, doc):
    """Raises BenchFailure naming the first gate run A fails."""
    for path, op, bound in bench.gates:
        value = get(doc, path)
        gate = f"{path} {op} {bound}"
        limit = bound
        if isinstance(bound, str):
            limit = get(doc, bound)
            gate += f" = {limit}"
        if not OPS[op](value, limit):
            raise BenchFailure(f"gate {gate}: got {value}")
        print(f"Gate passed: {gate} (got {value})")
    failures = bit_identical_failures(doc)
    if failures:
        raise BenchFailure("gate *bit_identical == true: "
                           + "; ".join(failures))


def compared_lines(bench, path):
    with open(path) as f:
        lines = f.readlines()
    if bench.digest is None:
        return lines
    return [line for line in lines if re.search(bench.digest, line)]


def cmake_cache(build_dir):
    entries = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([^#/][^:=]*):[^=]*=(.*)", line.rstrip("\n"))
            if m:
                entries[m.group(1)] = m.group(2)
    return entries


def simd_level(cache):
    """The level common/simd.cc resolves to: AVX2 unless forced portable."""
    forced = os.environ.get("CSOD_FORCE_PORTABLE_SIMD", "")
    if cache.get("CSOD_FORCE_PORTABLE_SIMD") == "ON" or forced not in ("", "0"):
        return "portable"
    with open("/proc/cpuinfo") as f:
        flags = next((line for line in f if line.startswith("flags")), "")
    return "avx2" if " avx2" in flags else "portable"


def compiler(build_dir):
    found = glob.glob(os.path.join(build_dir, "CMakeFiles", "*",
                                   "CMakeCXXCompiler.cmake"))
    if not found:
        return "unknown"
    with open(found[0]) as f:
        text = f.read()
    fields = [re.search(rf'set\(CMAKE_CXX_COMPILER_{key} "([^"]*)"\)', text)
              for key in ("ID", "VERSION")]
    return " ".join(m.group(1) for m in fields if m) or "unknown"


def git(*args):
    result = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                            text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def provenance(build_dir):
    cache = cmake_cache(build_dir)
    return {
        "nproc": CORES,
        "simd": simd_level(cache),
        "build_type": cache.get("CMAKE_BUILD_TYPE") or "none",
        "compiler": compiler(build_dir),
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
    }


def stamped(text, stamp):
    """`text` (one JSON object) with `"provenance": stamp` as its first key,
    the bench's own layout kept for every other line."""
    brace = text.index("{")
    out = (text[:brace + 1] + '\n  "provenance": ' + json.dumps(stamp) + ","
           + text[brace + 1:])
    json.loads(out)
    return out


def run(bench, build_dir, out_path, extra, quiet):
    cmd = [os.path.join(build_dir, "bench", bench.target)]
    cmd += [flag.format(out_path) for flag in bench.out_flags] + extra
    result = subprocess.run(cmd, stdout=subprocess.DEVNULL if quiet else None)
    if result.returncode != 0:
        raise BenchFailure(f"{bench.target} exited with {result.returncode}")


def main(argv):
    if len(argv) < 2 or argv[1] not in BENCHES:
        sys.stderr.write(__doc__)
        return 2
    name, extra = argv[1], argv[2:]
    bench = BENCHES[name]
    build_dir = os.environ.get("BUILD_DIR", os.path.join(ROOT, "build"))
    steps = [["cmake", "--build", build_dir, "--target", bench.target,
              "-j", str(CORES)]]
    if not os.path.isdir(build_dir):
        steps.insert(0, ["cmake", "-B", build_dir, "-S", ROOT,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step).returncode != 0:
            return 1

    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, f"run{i}.json") for i in range(bench.runs)]
        try:
            for i, out in enumerate(outs):
                run(bench, build_dir, out, extra, quiet=i > 0)
            if bench.runs == 2:
                a, b = (compared_lines(bench, out) for out in outs)
                if a != b:
                    sys.stderr.writelines(difflib.unified_diff(
                        a, b, "run A", "run B"))
                    raise BenchFailure(f"two {bench.target} runs disagree")
                print(f"Determinism check passed: two {bench.target} runs "
                      "agree.")
            with open(outs[0]) as f:
                try:
                    doc = json.load(f)
                except json.JSONDecodeError as e:
                    raise BenchFailure(f"output is not JSON: {e}") from None
            print(f"Gating on {CORES} cores.")
            check_gates(bench, doc)
        except BenchFailure as e:
            print(f"FAIL ({name}): {e}", file=sys.stderr)
            return 1
        dest = os.path.join(ROOT, f"BENCH_{name}.json")
        with open(outs[0]) as f:
            text = f.read()
        with open(dest, "w") as f:
            f.write(stamped(text, provenance(build_dir)))
        print(f"Wrote {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
