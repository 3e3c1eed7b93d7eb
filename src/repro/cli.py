"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``       — one consensus instance: algorithm × inputs × faults;
* ``table1``    — print the paper's Table 1 (optionally with empirical
  validation, which runs ~50 simulations);
* ``coverage``  — closed-form fast-path coverage curves for the two-value
  workload model;
* ``legality``  — mechanically check LT1/LT2/LA3/LA4/LU5 for a pair;
* ``conditions``— adaptive condition levels of a concrete input vector;
* ``check``     — model-check the named verification suite
  (:mod:`repro.mc`): exhaustive schedule exploration within delay
  bounds, per enumerated byzantine variant;
* ``serve``     — put the admission-controlled frontend behind a UDS/TCP
  socket and serve client sessions (:mod:`repro.frontend.socket`);
* ``hub``       — run one standalone mesh hub group over TCP
  (:mod:`repro.mesh`), so another host's ``MeshTopology.remote`` can
  point a cluster's shard traffic at it;
* ``load``      — drive load at the frontend: a seeded open- or
  closed-loop run in process, or a socket session against a ``serve``
  endpoint.

Every command prints plain-text tables (diff-friendly) and returns a
non-zero exit code on property violations, so the CLI can serve as a
smoke-check in CI pipelines of downstream projects.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .engine.events import EventLog
from .errors import ConfigurationError, ReproError
from .harness import (
    ENGINES,
    Collapse,
    Crash,
    CrashRecover,
    Equivocate,
    Fault,
    Garbage,
    Saboteur,
    Scenario,
    Silent,
    Spoiler,
    algorithm_named,
    all_algorithms,
)

_TABLE1_COLUMNS = [
    "algorithm",
    "system",
    "failures",
    "processes",
    "one_step",
    "two_step",
    "validated",
]


def _parse_value(text: str):
    """Values on the command line: ints when possible, else strings."""
    try:
        return int(text)
    except ValueError:
        return text


def _parse_inputs(text: str) -> list:
    return [_parse_value(v) for v in text.split(",") if v != ""]


def _parse_fault(spec: str) -> tuple[int, Fault]:
    """``pid:kind[:arg[:arg]]`` — e.g. ``6:equivocate:1:2`` or ``5:silent``."""
    parts = spec.split(":")
    if len(parts) < 2:
        raise argparse.ArgumentTypeError(
            f"fault spec {spec!r} must look like pid:kind[:args]"
        )
    pid = int(parts[0])
    kind = parts[1]
    args = [_parse_value(p) for p in parts[2:]]
    if kind == "silent":
        return pid, Silent()
    if kind == "crash":
        return pid, Crash(budget=int(args[0]) if args else 3)
    if kind == "equivocate":
        if len(args) != 2:
            raise argparse.ArgumentTypeError("equivocate needs two values")
        return pid, Equivocate(args[0], args[1])
    if kind == "garbage":
        return pid, Garbage(seed=int(args[0]) if args else 0)
    if kind == "spoiler":
        if not args:
            raise argparse.ArgumentTypeError("spoiler needs a fallback value")
        return pid, Spoiler(fallback=args[0])
    if kind == "collapse":
        if not args:
            raise argparse.ArgumentTypeError("collapse needs a value")
        return pid, Collapse(args[0])
    if kind == "saboteur":
        if not args:
            raise argparse.ArgumentTypeError("saboteur needs a poison value")
        return pid, Saboteur(args[0])
    if kind == "recover":
        if not args:
            raise argparse.ArgumentTypeError(
                "recover needs a crash time: pid:recover:at[:restart_after]"
            )
        restart = float(args[1]) if len(args) > 1 else None
        return pid, CrashRecover(at=float(args[0]), restart_after=restart)
    raise argparse.ArgumentTypeError(f"unknown fault kind {kind!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DEX (DSN 2010) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one consensus instance")
    run.add_argument("--algorithm", "-a", default="dex-freq",
                     choices=[spec.name for spec in all_algorithms()])
    run.add_argument("--inputs", "-i", type=_parse_inputs, required=True,
                     help="comma-separated proposals, one per process")
    run.add_argument("--t", type=int, default=None, help="failure bound")
    run.add_argument("--fault", "-f", dest="faults", type=_parse_fault,
                     action="append", default=[],
                     help="pid:kind[:args], repeatable (silent, crash, "
                          "equivocate, garbage, spoiler, collapse, saboteur, "
                          "recover)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--runs", type=int, default=1,
                     help="run this many seeds (seed..seed+runs-1) and print "
                          "the aggregate instead of per-process decisions")
    run.add_argument("--uc", choices=["oracle", "real"], default="oracle")
    run.add_argument("--engine", default="sim", metavar="{" + ",".join(ENGINES) + "}",
                     help="execution backend: deterministic discrete-event "
                          "(sim), lockstep rounds (sync), the model checker's "
                          "FIFO schedule (mc) or one OS process per node over "
                          "real sockets (net)")
    run.add_argument("--hubs", type=int, default=1,
                     help="net engine: hub groups of the mesh transport "
                          "(1 = the classic single-hub star; more needs "
                          "--engine net)")
    run.add_argument("--trace", action="store_true", help="print the event trace")

    table1 = sub.add_parser("table1", help="print the paper's Table 1")
    table1.add_argument("--validate", action="store_true",
                        help="empirically validate the implemented rows")

    coverage = sub.add_parser("coverage", help="closed-form coverage curves")
    coverage.add_argument("--n", type=int, default=13)
    coverage.add_argument("--t", type=int, default=2)
    coverage.add_argument("--q", type=float, action="append", default=None,
                          help="favourite probability, repeatable")

    legality = sub.add_parser("legality", help="verify LT1..LU5 for a pair")
    legality.add_argument("--pair", choices=["freq", "prv"], default="freq")
    legality.add_argument("--n", type=int, default=7)
    legality.add_argument("--t", type=int, default=1)
    legality.add_argument("--values", type=_parse_inputs, default=[1, 2])

    conditions = sub.add_parser("conditions", help="condition levels of an input")
    conditions.add_argument("--inputs", "-i", type=_parse_inputs, default=None)
    conditions.add_argument("--n", type=int, default=13)

    check = sub.add_parser(
        "check",
        help="model-check the named verification suite (repro.mc)",
    )
    check.add_argument("--smoke", action="store_true",
                       help="tightened bounds for CI (seconds, not minutes)")
    check.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable report on stdout")

    serve = sub.add_parser(
        "serve",
        help="serve the admission-controlled frontend over a UDS/TCP socket",
    )
    serve.add_argument("--path", default=None,
                       help="UDS path to bind (the default transport)")
    serve.add_argument("--tcp", default=None, metavar="HOST:PORT",
                       help="bind TCP instead of UDS (port 0 = kernel-picked)")
    serve.add_argument("--n", type=int, default=7, help="replica count")
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument("--max-batch", type=int, default=4)
    serve.add_argument("--queue-bound", type=int, default=16,
                       help="per-shard admission queue depth")
    serve.add_argument("--policy", choices=["shed", "block", "deadline"],
                       default="shed")
    serve.add_argument("--deadline", type=int, default=None,
                       help="queue-wait bound in ticks (deadline policy)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--sessions", type=int, default=1,
                       help="client sessions to serve before exiting")
    serve.add_argument("--timeout", type=float, default=60.0)

    hub = sub.add_parser(
        "hub",
        help="run one standalone mesh hub group over TCP (repro.mesh)",
    )
    hub.add_argument("--index", type=int, required=True,
                     help="hub-group index, at least 1 — hub 0 always lives "
                          "inside the cluster orchestrator")
    hub.add_argument("--n", type=int, required=True, help="replica count")
    hub.add_argument("--host", default="127.0.0.1", help="bind address")
    hub.add_argument("--port", type=int, default=0,
                     help="bind port (0 = kernel-picked, printed on stderr)")
    hub.add_argument("--seed", type=int, default=0,
                     help="cluster seed (the hub's jitter stream derives from "
                          "seed and index)")
    hub.add_argument("--mean-delay", type=float, default=0.0005)
    hub.add_argument("--timeout", type=float, default=300.0,
                     help="failsafe deadline in seconds")

    load = sub.add_parser(
        "load",
        help="drive load at the frontend (in-process loop, or a socket session)",
    )
    load.add_argument("--mode", choices=["open", "closed"], default="open",
                      help="open: Poisson arrivals at --offered per tick; "
                           "closed: a window of --clients outstanding")
    load.add_argument("--offered", type=float, default=8.0,
                      help="open loop: offered load in commands per slot tick")
    load.add_argument("--ticks", type=int, default=40,
                      help="open loop: submission duration in ticks")
    load.add_argument("--clients", type=int, default=8,
                      help="closed loop: window of outstanding submissions")
    load.add_argument("--count", type=int, default=160,
                      help="closed loop / socket session: total commands")
    load.add_argument("--n", type=int, default=7, help="replica count")
    load.add_argument("--shards", type=int, default=2)
    load.add_argument("--max-batch", type=int, default=4)
    load.add_argument("--queue-bound", type=int, default=16)
    load.add_argument("--policy", choices=["shed", "block", "deadline"],
                      default="shed")
    load.add_argument("--deadline", type=int, default=None)
    load.add_argument("--skew", choices=["uniform", "zipf"], default="uniform")
    load.add_argument("--keyspace", type=int, default=32)
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--path", default=None,
                      help="drive a `repro serve` UDS endpoint instead of an "
                           "in-process service")
    load.add_argument("--tcp", default=None, metavar="HOST:PORT",
                      help="drive a `repro serve` TCP endpoint")
    load.add_argument("--timeout", type=float, default=60.0)
    return parser


def _cmd_run(args) -> int:
    from .metrics.report import format_table

    algorithm = algorithm_named(args.algorithm)
    if args.hubs < 1:
        raise ConfigurationError(f"--hubs must be at least 1, not {args.hubs}")
    if args.hubs > 1 and args.engine != "net":
        raise ConfigurationError(
            f"--hubs {args.hubs} runs a mesh of hub groups, which only the net "
            f"engine has (got --engine {args.engine})"
        )
    mesh = None
    if args.hubs > 1:
        from .mesh.topology import MeshTopology

        mesh = MeshTopology(hubs=args.hubs)
    scenario = Scenario(
        algorithm,
        args.inputs,
        t=args.t,
        faults=dict(args.faults),
        uc=args.uc,
        seed=args.seed,
        engine=args.engine,
        event_sink=EventLog() if args.trace else None,
        mesh=mesh,
    )
    if args.runs > 1:
        aggregate = scenario.run_many(range(args.seed, args.seed + args.runs))
        print(format_table([aggregate.summary()],
                           title=f"{algorithm.name}: n={scenario.config.n}, "
                                 f"t={scenario.config.t}, {args.runs} runs"))
        low, high = aggregate.confidence_interval()
        print(f"mean slowest step: {aggregate.mean_max_step:.3f} "
              f"(95% CI [{low:.3f}, {high:.3f}])")
        complete = aggregate.runs - aggregate.undecided_runs
        print(f"decided={complete}/{aggregate.runs} runs "
              f"agreement={'VIOLATED' if aggregate.agreement_violations else 'ok'}")
        return 1 if aggregate.undecided_runs or aggregate.agreement_violations else 0
    result = scenario.run()
    rows = [
        {
            "pid": pid,
            "value": repr(d.value),
            "path": d.kind.value,
            "step": d.step,
            "time": round(d.time, 3),
        }
        for pid, d in sorted(result.correct_decisions.items())
    ]
    print(format_table(rows, title=f"{algorithm.name}: n={scenario.config.n}, "
                                   f"t={scenario.config.t}, seed={args.seed}"))
    correct = scenario.config.n - len(result.faulty)
    print(f"messages={result.stats.messages_sent} "
          f"decided={len(rows)}/{correct} "
          f"agreement={'ok' if result.agreement_holds() else 'VIOLATED'}")
    if args.trace:
        print(scenario.event_sink.format())
    if result.all_correct_decided() and result.agreement_holds():
        return 0
    # Agreement is vacuous on zero decisions: an undecided run is a failure,
    # and the engines that can say why (deadline, dead workers) do.
    if result.timed_out:
        print("error: run timed_out before every correct process decided",
              file=sys.stderr)
    failed = {pid: code for pid, code in getattr(result, "exit_codes", {}).items()
              if code != 0}
    if failed:
        print(f"error: non-zero node exit codes {failed}", file=sys.stderr)
    return 1


def _cmd_table1(args) -> int:
    from .analysis.tables import dex_condition_examples, paper_table1, validated_table1
    from .metrics.report import format_table

    rows = validated_table1() if args.validate else paper_table1()
    print(format_table(rows, _TABLE1_COLUMNS, title="Table 1"))
    print()
    print(format_table(dex_condition_examples(13), title="Condition examples (n=13)"))
    bad = [r for r in rows if r["validated"].startswith("NO")]
    return 1 if bad else 0


def _cmd_coverage(args) -> int:
    from .analysis.closed_form import (
        bosco_one_step,
        dex_freq_one_step,
        dex_freq_two_step,
        dex_prv_one_step,
    )
    from .metrics.report import format_table

    qs = args.q or [0.95, 0.9, 0.8, 0.7, 0.5]
    rows = []
    for q in qs:
        for f in range(args.t + 1):
            rows.append(
                {
                    "q": q,
                    "f": f,
                    "dex-freq 1-step": round(dex_freq_one_step(args.n, args.t, f, q), 4),
                    "dex-freq ≤2-step": round(dex_freq_two_step(args.n, args.t, f, q), 4),
                    "dex-prv 1-step": round(dex_prv_one_step(args.n, args.t, f, q), 4),
                    "bosco 1-step": round(bosco_one_step(args.n, args.t, f, q), 4),
                }
            )
    print(format_table(rows, title=f"Closed-form coverage, n={args.n}, t={args.t}"))
    return 0


def _cmd_legality(args) -> int:
    from .conditions.frequency import FrequencyPair
    from .conditions.legality import LegalityChecker
    from .conditions.privileged import PrivilegedPair

    if args.pair == "freq":
        pair = FrequencyPair(args.n, args.t)
    else:
        pair = PrivilegedPair(args.n, args.t, privileged=args.values[0])
    report = LegalityChecker(pair, args.values).check_exhaustive()
    print(f"pair={report.pair} checks={report.checks} "
          f"legal={'yes' if report.is_legal else 'NO'}")
    for violation in report.violations:
        print(f"  violation: {violation}")
    return 0 if report.is_legal else 1


def _cmd_conditions(args) -> int:
    from .analysis.tables import dex_condition_examples
    from .conditions.frequency import FrequencyPair
    from .conditions.views import View
    from .metrics.report import format_table

    if args.inputs is not None:
        n = len(args.inputs)
        t = max((n - 1) // 6, 0)
        vector = View(args.inputs)
        freq = FrequencyPair(n, t)
        rows = [
            {
                "n": n,
                "t": t,
                "gap": vector.frequency_gap(),
                "freq 1-step level": str(freq.one_step_level(vector)),
                "freq 2-step level": str(freq.two_step_level(vector)),
            }
        ]
        print(format_table(rows, title=f"Condition levels of {args.inputs}"))
    else:
        print(format_table(dex_condition_examples(args.n),
                           title=f"Condition examples (n={args.n})"))
    return 0


def _cmd_check(args) -> int:
    import json

    from .mc.suite import run_suite
    from .metrics.report import format_table

    reports = run_suite(smoke=args.smoke)
    if args.as_json:
        print(json.dumps([r.describe() for r in reports], indent=2))
        return 0 if all(r.ok for r in reports) else 1
    rows = []
    for report in reports:
        verdict = "ok" if report.ok else "FAIL"
        if report.expect_violation and report.ok:
            verdict = f"ok (violation @ {report.violation_budget} delays)"
        rows.append(
            {
                "check": report.name,
                "config": report.config,
                "budget": report.delay_budget,
                "variants": len(report.variants),
                "states": report.states,
                "complete": "yes" if report.complete else "capped",
                "time": f"{report.elapsed:.1f}s",
                "verdict": verdict,
            }
        )
    title = "Verification suite" + (" (smoke)" if args.smoke else "")
    print(format_table(rows, title=title))
    failed = [r for r in reports if not r.ok]
    for report in failed:
        print(f"\n{report.name}: FAILED — {report.description}")
        if report.counterexample is not None:
            ce = report.counterexample
            print(f"  {ce.invariant}: {ce.detail}")
            for src, dst, payload in ce.schedule:
                print(f"    deliver {src} -> {dst}: {payload}")
    return 1 if failed else 0


def _parse_hostport(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"{text!r} is not HOST:PORT")
    return host, int(port)


def _frontend_factory(args):
    """A fresh admission-controlled frontend per session, from CLI knobs."""
    from .frontend.api import Frontend
    from .shard.service import ShardedService

    def make():
        service = ShardedService(
            n=args.n,
            shards=args.shards,
            max_batch=args.max_batch,
            seed=args.seed,
        )
        return Frontend(
            service,
            queue_bound=args.queue_bound,
            policy=args.policy,
            deadline=args.deadline,
        )

    return make


def _cmd_serve(args) -> int:
    from .frontend.socket import FrontendServer
    from .metrics.report import format_table

    if (args.path is None) == (args.tcp is None):
        print("error: pass exactly one of --path (UDS) or --tcp HOST:PORT",
              file=sys.stderr)
        return 2
    server = FrontendServer(
        _frontend_factory(args),
        path=args.path,
        address=_parse_hostport(args.tcp) if args.tcp else None,
    )
    where = server.bind()
    print(f"serving frontend at {where} "
          f"(n={args.n}, shards={args.shards}, policy={args.policy})",
          file=sys.stderr)
    try:
        for _ in range(args.sessions):
            report = server.serve_once(timeout=args.timeout)
            print(format_table([report.summary()], title="session"))
    finally:
        server.close()
    return 0


def _cmd_hub(args) -> int:
    from .mesh.hub import serve_hub

    def announce(address) -> None:
        host, port = address[:2]
        print(f"hub {args.index} listening at {host}:{port} (n={args.n})",
              file=sys.stderr)

    return serve_hub(
        args.index,
        args.n,
        host=args.host,
        port=args.port,
        seed=args.seed,
        mean_delay=args.mean_delay,
        deadline_seconds=args.timeout,
        announce=announce,
    )


def _cmd_load(args) -> int:
    from .metrics.report import format_table

    if args.path or args.tcp:
        from .frontend.socket import ClientReply, SocketClient

        client = SocketClient(
            path=args.path,
            address=_parse_hostport(args.tcp) if args.tcp else None,
            timeout=args.timeout,
        )
        import random

        rng = random.Random(args.seed)
        commands = [
            (f"k{rng.randrange(args.keyspace)}", i) for i in range(args.count)
        ]
        outcomes = client.submit_all(commands)
        replies = sum(1 for o in outcomes.values() if isinstance(o, ClientReply))
        rejects = len(outcomes) - replies
        print(format_table(
            [{"submits": len(commands), "replies": replies, "rejects": rejects}],
            title=f"socket session against {args.path or args.tcp}"))
        return 0 if replies + rejects == len(commands) else 1

    from .frontend.loadgen import LoadGenerator

    generator = LoadGenerator(
        keyspace=args.keyspace, skew=args.skew, seed=args.seed
    )
    frontend = _frontend_factory(args)()
    if args.mode == "open":
        report = generator.open_loop(
            frontend, offered=args.offered, ticks=args.ticks, timeout=args.timeout
        )
        title = f"open loop: offered={args.offered}/tick over {args.ticks} ticks"
    else:
        report = generator.closed_loop(
            frontend, clients=args.clients, total=args.count, timeout=args.timeout
        )
        title = f"closed loop: {args.clients} clients, {args.count} commands"
    print(format_table([report.summary()], title=title))
    divergence = bool(report.shard.divergence) if report.shard else False
    return 1 if divergence else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    handlers = {
        "run": _cmd_run,
        "table1": _cmd_table1,
        "coverage": _cmd_coverage,
        "legality": _cmd_legality,
        "conditions": _cmd_conditions,
        "check": _cmd_check,
        "serve": _cmd_serve,
        "hub": _cmd_hub,
        "load": _cmd_load,
    }
    try:
        # inside the try: a fault spec is built (and validated) while parsing
        args = parser.parse_args(argv)
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
