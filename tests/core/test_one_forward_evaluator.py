"""Guard: production code has exactly one forward evaluator.

The interned kernel (:class:`repro.core.forward.ForwardEngine`) is the
only forward fixpoint a library caller can reach.  The object-state
transcription of the same fixpoint lives in :mod:`repro.kernel.reference`
as the differential oracle, which no library module imports, and no
engine switch survives anywhere on the public surface.
"""

import ast
from pathlib import Path

import pytest

import repro
import repro.core.forward
from repro.core.session import Session, compile as compile_session
from repro.service import WorkerPool
from repro.workloads.families import nd_bc_family

SRC = Path(repro.__file__).resolve().parent
ORACLE = "repro.kernel.reference"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, path.read_text(encoding="utf-8")


def _imported_modules(source: str):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def test_the_oracle_is_unreachable_from_library_code():
    """The object evaluator lives only in the oracle module; no library
    module imports that module or mentions an engine switch."""
    from repro.kernel import reference

    assert issubclass(reference.ObjectForwardEngine, repro.core.forward.ForwardEngine)
    for path, source in _modules():
        name = str(path.relative_to(SRC))
        assert ORACLE not in set(_imported_modules(source)), name
        for word in ("use_kernel", "kernel_sensitive"):
            assert word not in source, f"{name}: {word}"


@pytest.mark.parametrize(
    "entry_point",
    [
        lambda din, dout, t: Session(din, dout, eager=False, use_kernel=True),
        lambda din, dout, t: compile_session(din, dout, use_kernel=False),
        lambda din, dout, t: repro.typecheck(t, din, dout, use_kernel=True),
        lambda din, dout, t: repro.typecheck(
            t, din, dout, method="forward", use_kernel=False
        ),
        lambda din, dout, t: WorkerPool(workers=1, use_kernel=True).close(),
    ],
    ids=["Session", "compile", "typecheck-auto", "typecheck-forward", "WorkerPool"],
)
def test_use_kernel_is_an_unknown_option(entry_point):
    transducer, din, dout, _ = nd_bc_family(3)
    with pytest.raises(TypeError, match="use_kernel"):
        entry_point(din, dout, transducer)
