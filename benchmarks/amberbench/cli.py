"""Command line of AmberBench.

``contract_main`` is what ``run.py`` serves: one pass of one workload and
one JSON result line.  ``main`` serves ``python -m benchmarks.amberbench``:

* ``run``      — four workloads, untraced then traced, every metric printed
* ``repeat``   — K full sets; spreads against the bounds; exact metrics
* ``selftest`` — flips one expected value per workload; each must fail
* ``manifest`` — prints ``BENCHMARK.json`` from the catalogue
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.amberbench import catalog, harness

Document = Dict[str, Any]


# ---------------------------------------------------------------------------
# run.py: the BENCHMARK.json contract
# ---------------------------------------------------------------------------


def contract_main(argv: Sequence[str]) -> int:
    if len(argv) == 2 and argv[0] == "--child":
        from benchmarks.amberbench import runner
        print(json.dumps(runner.run(json.loads(argv[1]))))
        return 0
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True,
                        choices=catalog.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    result = harness.run_pass(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result.pop("info")), file=sys.stderr)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# python -m benchmarks.amberbench
# ---------------------------------------------------------------------------


def run_set(seed: int, size: str, seconds: float,
            traced: bool = True) -> Document:
    """All four workloads, each untraced and then traced."""
    document: Document = {"schema": "amberbench/1", "seed": seed,
                          "size": size, "seconds": seconds,
                          "environment": harness.environment(),
                          "workloads": {}}
    for spec in catalog.WORKLOADS:
        name = spec["name"]
        entry: Document = {"why": spec["why"]}
        for key, trace in (("end_to_end", False), ("per_layer", True)):
            if trace and not traced:
                continue
            print(f"  {name}: {'traced' if trace else 'untraced'} pass...",
                  file=sys.stderr, flush=True)
            entry[key] = harness.run_pass(name, seed, seconds, trace, size)
        document["workloads"][name] = entry
    calibrations = [
        entry["per_layer"]["metrics"]["host.calibration_ops_per_s"]["value"]
        for entry in document["workloads"].values() if "per_layer" in entry]
    if calibrations:
        document["environment"]["host.calibration_ops_per_s"] = \
            statistics.median(calibrations)
    return document


def render(document: Document) -> str:
    """Every metric by name, with its unit."""
    env = document["environment"]
    lines = [
        f"AmberBench  seed={document['seed']} size={document['size']} "
        f"rev={env['git_rev']} python={env['python']} nproc={env['nproc']} "
        f"load={env['loadavg_at_start'][0]:.2f}",
        "host time: s/ms/us/ns and every */s rate; simulated: sim_us and "
        "every sim.* count",
        "end_to_end times are corrected to the reference host's speed; "
        "per_layer times are as measured",
        "sim_sor and live_fanout do not depend on the seed",
    ]
    for name, entry in document["workloads"].items():
        for key in ("end_to_end", "per_layer"):
            if key not in entry:
                continue
            result = entry[key]
            info = result["info"]
            verdict = "ok" if result["correct"] else "FAILED"
            lines.append("")
            lines.append(
                f"[{name}] {key}  {verdict}: {result['failed']} failed of "
                f"{result['attempted']} attempted  "
                f"(work unit: {info['work_unit']})")
            for metric, cell in result["metrics"].items():
                bound = catalog.BOUNDS.get(metric)
                suffix = f"  (bound {bound:.2f})" if bound is not None else ""
                lines.append(f"  {metric:<40} {cell['value']:>16.6g} "
                             f"{cell['unit']}{suffix}")
    return "\n".join(lines)


def all_correct(document: Document) -> bool:
    return all(entry[key]["correct"]
               for entry in document["workloads"].values()
               for key in ("end_to_end", "per_layer") if key in entry)


def spreads(documents: List[Document], same_seed: bool) -> List[str]:
    """Compare K sets of the same code.  Returns the violations; prints
    one row per end-to-end metric and workload."""
    violations: List[str] = []
    print(f"{'workload':<14} {'metric':<16} {'median':>12} {'iqr/med':>8} "
          f"{'max pair':>9} {'bound':>6}")
    for workload in catalog.WORKLOAD_NAMES:
        for metric, _, better, bound in catalog.END_TO_END:
            values = [doc["workloads"][workload]["end_to_end"]["metrics"]
                      [metric]["value"] for doc in documents]
            median = statistics.median(values)
            iqr = 0.0
            if len(values) >= 2:
                quartiles = statistics.quantiles(values, n=4)
                iqr = (quartiles[2] - quartiles[0]) / median
            worst = max(_worsening(a, b, better)
                        for a, b in itertools.combinations(values, 2))
            flag = ""
            if worst > bound:
                flag = "  <-- pair beyond bound"
                violations.append(f"{workload}.{metric}: two sets differ "
                                  f"by {worst:.3f} > {bound}")
            print(f"{workload:<14} {metric:<16} {median:>12.5g} "
                  f"{iqr:>8.3f} {worst:>9.3f} {bound:>6.2f}{flag}")
        seed_free = workload in ("sim_sor", "live_fanout")
        layers = [doc["workloads"][workload].get("per_layer")
                  for doc in documents]
        if all(layers) and (same_seed or seed_free):
            for metric in sorted(catalog.EXACT):
                seen = {layer["metrics"][metric]["value"]
                        for layer in layers}
                if len(seen) > 1:
                    violations.append(f"{workload}.{metric}: exact metric "
                                      f"differs between sets: {sorted(seen)}")
    return violations


def _worsening(a: float, b: float, better: str) -> float:
    """How much worse the worse of two values is, as a share of the
    better one — the same ratio a bound is a limit on."""
    best = max(a, b) if better == "higher" else min(a, b)
    return abs(a - b) / best


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.amberbench")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "repeat"):
        command = commands.add_parser(name)
        command.add_argument("--seed", type=int, default=1)
        command.add_argument("--seconds", type=float,
                             default=catalog.RUN_SECONDS)
        command.add_argument("--smoke", action="store_true",
                             help="tiny sizes: schema check, not numbers")
        command.add_argument("--json", metavar="OUT")
    repeat = commands.choices["repeat"]
    repeat.add_argument("--sets", type=int, default=2)
    repeat.add_argument("--vary-seed", action="store_true",
                        help="set i runs on seed+i, as the contract's "
                             "steadiness check does")
    repeat.add_argument("--no-trace", action="store_true",
                        help="end-to-end passes only")
    commands.add_parser("selftest")
    commands.add_parser("manifest")
    args = parser.parse_args(argv)

    if args.command == "manifest":
        print(json.dumps(catalog.manifest(), indent=2))
        return 0
    if args.command == "selftest":
        return _selftest()
    size = "smoke" if args.smoke else "full"
    seconds = 0.0 if args.smoke else args.seconds
    if args.command == "run":
        document = run_set(args.seed, size, seconds)
        print(render(document))
        _dump(document, args.json)
        return 0 if all_correct(document) else 1
    documents = []
    for index in range(args.sets):
        seed = args.seed + index if args.vary_seed else args.seed
        print(f"set {index + 1}/{args.sets} (seed {seed})",
              file=sys.stderr, flush=True)
        documents.append(run_set(seed, size, seconds,
                                 traced=not args.no_trace))
    violations = spreads(documents, same_seed=not args.vary_seed)
    violations += [f"set {index + 1}: an oracle failed"
                   for index, doc in enumerate(documents)
                   if not all_correct(doc)]
    for violation in violations:
        print(f"VIOLATION {violation}")
    _dump({"schema": "amberbench-repeat/1", "sets": documents,
           "violations": violations}, args.json)
    return 1 if violations else 0


def _selftest() -> int:
    """An oracle that cannot fail proves nothing: corrupt one expected
    value per workload and require the pass to report failure."""
    toothless = []
    for workload in catalog.WORKLOAD_NAMES:
        result = harness.run_pass(workload, 1, 0.0, False, "smoke",
                                  flip_oracle=True)
        caught = not result["correct"] and result["failed"] >= 1
        print(f"{workload}: flipped oracle "
              f"{'caught' if caught else 'NOT caught'} "
              f"({result['failed']} failed of {result['attempted']})")
        if not caught:
            toothless.append(workload)
    return 1 if toothless else 0


def _dump(document: Document, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
