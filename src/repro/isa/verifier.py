"""Static schedule verifier: lint a kernel against the pipeline rules.

The hand-scheduled kernels of Section VI are fragile — one swapped line
and a load arrives after its consumer or two writes race.  This verifier
checks a :class:`~repro.isa.program.Program` *statically* (without running
the cycle simulator) and reports:

* ``use-before-def`` — a register read with no earlier writer (inputs and
  accumulators must be preloaded; those are declared via ``live_in``);
* ``raw-too-close`` — a consumer scheduled fewer than ``latency`` issue
  slots after its producer (a guaranteed stall under in-order issue);
* ``dead-write`` — a value overwritten before any read (usually a copy-
  paste error in unrolled code);
* ``bus-unbalanced`` — put/get counts that cannot drain a transfer buffer.

The cycle simulator remains the ground truth; the verifier exists to give
*named*, located diagnostics, and the tests check it flags exactly the
hazards planted in known-bad kernels and stays silent on generated ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from repro.isa.program import Program


@dataclass(frozen=True)
class Diagnostic:
    """One verifier finding."""

    kind: str
    index: int
    message: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"[{self.kind}] #{self.index}: {self.message}"


def verify_program(
    program: Program,
    live_in: Sequence[str] = (),
    live_out: Sequence[str] = (),
    warn_raw_distance: bool = True,
) -> List[Diagnostic]:
    """Lint a program; returns diagnostics (empty = clean)."""
    diagnostics: List[Diagnostic] = []
    defined: Set[str] = set(live_in)
    last_write: Dict[str, int] = {}
    reads_since_write: Dict[str, int] = {}
    put_count = 0
    get_count = 0

    for idx, instr in enumerate(program):
        spec = instr.spec
        for reg in instr.reads:
            if reg not in defined:
                diagnostics.append(
                    Diagnostic(
                        "use-before-def",
                        idx,
                        f"{instr.op} reads {reg!r} which has no prior writer "
                        f"(declare it live_in if preloaded)",
                    )
                )
            writer = last_write.get(reg)
            if warn_raw_distance and writer is not None:
                producer = program[writer]
                distance = idx - writer
                if distance < producer.spec.latency and distance > 0:
                    diagnostics.append(
                        Diagnostic(
                            "raw-too-close",
                            idx,
                            f"{instr.op} reads {reg!r} only {distance} slots "
                            f"after {producer.op} (latency "
                            f"{producer.spec.latency}); in-order issue stalls",
                        )
                    )
            reads_since_write[reg] = reads_since_write.get(reg, 0) + 1
        for reg in instr.writes:
            if reg in last_write and reads_since_write.get(reg, 0) == 0:
                prev = program[last_write[reg]]
                if not prev.spec.is_load or not spec.is_load:
                    diagnostics.append(
                        Diagnostic(
                            "dead-write",
                            idx,
                            f"{instr.op} overwrites {reg!r} written at "
                            f"#{last_write[reg]} and never read since",
                        )
                    )
            defined.add(reg)
            last_write[reg] = idx
            reads_since_write[reg] = 0
        if spec.is_comm:
            if instr.op in ("putr", "putc"):
                put_count += 1
            else:
                get_count += 1

    for reg in live_out:
        if reg not in defined:
            diagnostics.append(
                Diagnostic(
                    "use-before-def",
                    len(program),
                    f"declared live_out register {reg!r} is never written",
                )
            )
    if put_count != get_count and (put_count or get_count):
        diagnostics.append(
            Diagnostic(
                "bus-unbalanced",
                len(program),
                f"{put_count} puts vs {get_count} gets: transfer buffers "
                f"will not drain",
            )
        )
    return diagnostics


def assert_clean(
    program: Program, live_in: Sequence[str] = (), **kwargs
) -> None:
    """Raise ``AssertionError`` with all diagnostics if the program lints."""
    diagnostics = verify_program(program, live_in=live_in, **kwargs)
    if diagnostics:
        listing = "\n".join(str(d) for d in diagnostics)
        raise AssertionError(f"schedule verification failed:\n{listing}")
