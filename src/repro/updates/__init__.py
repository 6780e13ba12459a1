"""Schema-safe XML update validation (``repro.updates``).

A small language of XML edit operations — rename, delete, insert, wrap,
optionally guarded by the parent label — compiled to the repo's
deterministic top-down :class:`~repro.transducers.transducer.TreeTransducer`
form, following the rewrite-based update verification line of Jacquemard
and Rusinowitch ("Rewrite based Verification of XML Updates"): an edit
script is *schema-safe* for a pair ``(din, dout)`` exactly when its
compiled transducer typechecks, so every engine in the repo (forward,
backward, auto, the service) answers update-validation queries
unchanged.  A chain of successive script revisions is re-checked link
by link with :meth:`repro.core.session.Session.retypecheck`, a plain warm
query of each revision: the session's compiled schema and result cache
make every link after the first cheap.

>>> from repro.updates import Rename, DeleteNode, compile_script
>>> script = (Rename("para", "p"), DeleteNode("note", under="sec"))
>>> t = compile_script(script, din.alphabet)
>>> session.typecheck(t).typechecks          # is the update schema-safe?
"""

from repro.updates.ops import (
    DeleteNode,
    DeleteTree,
    EditOp,
    EditScript,
    InsertAfter,
    InsertBefore,
    InsertInto,
    Rename,
    Wrap,
    apply_script,
    parse_update_script,
    script_labels,
    script_str,
)
from repro.updates.compile import compile_script

__all__ = [
    "DeleteNode",
    "DeleteTree",
    "EditOp",
    "EditScript",
    "InsertAfter",
    "InsertBefore",
    "InsertInto",
    "Rename",
    "Wrap",
    "apply_script",
    "compile_script",
    "parse_update_script",
    "script_labels",
    "script_str",
]
