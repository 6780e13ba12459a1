#!/usr/bin/env python3
"""XML-update validation and edit-chain re-checking, end to end.

The ``repro.updates`` workload class: an edit script (insert / delete /
rename / wrap ops, optionally guarded by the parent label) is compiled
into the paper's transducer class and typechecked like any other
transducer — "does this update keep every valid document valid?"

1. a *safe* editorial script on a document schema pair — PASS;
2. an *unsafe* script (drops the mandatory section title) — FAIL, with
   the offending document as a counterexample and its broken
   translation;
3. the same script applied directly to a tree (``apply_script`` and the
   compiled transducer agree by construction);
4. a chain of single-rule edits re-checked with ``Session.retypecheck``
   — each link is a plain warm query on the compiled session, and the
   link back to the base is answered from the result cache (watch
   ``table_cache`` in the stats).

Run:  python examples/update_validation.py
"""

import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(REPO_SRC))

import repro  # noqa: E402
from repro.core.session import Session  # noqa: E402
from repro.service.protocol import dtd_to_text  # noqa: E402
from repro.trees.tree import Tree  # noqa: E402
from repro.updates import apply_script, compile_script, script_str  # noqa: E402
from repro.workloads.updates import (  # noqa: E402
    document_pair,
    edit_arm_pair,
    edit_arm_transducer,
    safe_script,
    unsafe_script,
)


def main() -> int:
    din, dout = document_pair()
    for title, dtd in (("input schema", din), ("output schema", dout)):
        body = "\n".join(f"  {line}" for line in dtd_to_text(dtd).splitlines())
        print(f"{title}:\n{body}")
    session = repro.compile(din, dout)

    print("\nsafe editorial script (rename para, drop notes, wrap figures):")
    for line in script_str(safe_script()).splitlines():
        print(f"  {line}")
    ok = session.typecheck(compile_script(safe_script(), din.alphabet))
    print(f"  => typechecks={ok.typechecks}  ({ok.algorithm})")

    print("\nunsafe script (also deletes the mandatory section title):")
    for line in script_str(unsafe_script()).splitlines():
        print(f"  {line}")
    bad = session.typecheck(compile_script(unsafe_script(), din.alphabet))
    witness = bad.counterexample
    print(f"  => typechecks={bad.typechecks}")
    print(f"  counterexample document: {witness}")
    transducer = compile_script(unsafe_script(), din.alphabet)
    print(f"  its updated form:        {transducer.apply(witness)}")

    print("\napplying the safe script to one document directly:")
    doc = Tree("doc", (
        Tree("sec", (
            Tree("title"), Tree("para"), Tree("note"),
            Tree("fig", (Tree("cap"),)),
        )),
    ))
    updated = apply_script(doc, safe_script())
    print(f"  before: {doc}")
    print(f"  after:  {updated}")
    compiled = compile_script(safe_script(), din.alphabet)
    assert compiled.apply(doc) == updated  # compiler and interpreter agree

    print("\nwarm re-checks over a chain of single-rule edits:")
    arms = 8
    din, dout = edit_arm_pair(arms)
    session = Session(din, dout)
    base = edit_arm_transducer(arms)
    result = session.typecheck(base)
    print(
        f"  {'base':19s}: typechecks={result.typechecks!s:5s}"
        f"  engine={result.stats['auto_method']}"
    )
    chain = [
        (f"edit arm {i} ({variant})",
         edit_arm_transducer(arms, edited=i, variant=variant))
        for i, variant in ((1, "safe"), (3, "safe"), (5, "unsafe"))
    ]
    chain.append(("back to the base", base))
    prev = base
    for label, edited in chain:
        result = session.retypecheck(edited, prev)
        print(
            f"  {label:19s}: typechecks={result.typechecks!s:5s}"
            f"  engine={result.stats['auto_method']}"
            f"  table_cache={result.stats.get('table_cache')}"
        )
        prev = edited
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
