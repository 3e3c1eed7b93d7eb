#!/usr/bin/env python3
"""Run the same DEX protocol objects on a real asyncio event loop.

Every protocol in this library is a sans-IO state machine, so the exact
code that runs under the deterministic simulator also runs over an
in-memory asyncio transport with real ``asyncio.sleep`` link delays.  The
demo times a fast-path and a fallback consensus and shows the equivocator
being survived on the live loop.

Run:  python examples/asyncio_demo.py
"""

from repro import Equivocate, Scenario, dex_freq


def show(title, result):
    kinds = sorted({d.kind.value for d in result.correct_decisions.values()})
    print(f"{title:32} decided={result.decided_value!r:3} paths={kinds} "
          f"steps≤{result.max_correct_step} wall={result.end_time * 1000:.1f} ms")


def main():
    print(__doc__)

    result = Scenario(dex_freq(), [1] * 7, seed=1, engine="asyncio").run(
        timeout=15, mean_delay=0.002
    )
    show("unanimous (one step)", result)
    assert result.max_correct_step == 1

    result = Scenario(dex_freq(), [1, 1, 1, 1, 2, 2, 2], seed=2, engine="asyncio").run(
        timeout=15, mean_delay=0.002
    )
    show("contended (fallback)", result)

    result = Scenario(
        dex_freq(), [1] * 7, faults={6: Equivocate(1, 2)}, seed=3, engine="asyncio"
    ).run(timeout=15, mean_delay=0.002)
    show("unanimous + equivocator", result)
    assert result.agreement_holds()

    print("\nSame protocol objects, two runtimes — no protocol code changed.")


if __name__ == "__main__":
    main()
