"""Engine protocol + registry: one seam for every typechecking algorithm.

See :mod:`repro.engines.base` for the protocol and
:mod:`repro.engines.builtin` for the six built-in engines (registered on
import).  ``repro.engines.get_engine("forward")`` is the dispatch point
the session, service, cache, CLI, and docs all share.
"""

from repro.engines.base import (
    NON_OPTION_PARAMS,
    Engine,
    engine_names,
    engines,
    get_engine,
    method_table_markdown,
    persistent_engines,
    register,
    routable_engines,
)
from repro.engines import builtin as _builtin  # noqa: F401 - registers engines

__all__ = [
    "NON_OPTION_PARAMS",
    "Engine",
    "engine_names",
    "engines",
    "get_engine",
    "method_table_markdown",
    "persistent_engines",
    "register",
    "routable_engines",
]
