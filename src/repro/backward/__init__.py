"""``repro.backward`` — inverse type inference (the classical backward route).

A second, independent typechecking engine next to the paper's forward
accumulation method: complement the output schema (completed content DFAs
with flipped acceptance — the Theorem 20 machinery specialized to DTDs),
run a backward rule induction over the top-down transducer to obtain the
pre-image of the bad-output language, and decide typechecking as
emptiness of ``pre-image ∩ din`` on the shared kernel
:class:`~repro.kernel.product.ProductBFS` engine.  Exposed end to end as
``method="backward"`` (``Session.typecheck``, the one-shot API, the CLI
and the service).  See :mod:`repro.backward.engine` for the algorithm.
"""

from repro.backward.engine import (
    BACKWARD_TABLE_LIMIT,
    BackwardEngine,
    BackwardSchema,
    typecheck_backward,
)
from repro.backward.preimage import preimage_product_nta

__all__ = [
    "BACKWARD_TABLE_LIMIT",
    "BackwardEngine",
    "BackwardSchema",
    "preimage_product_nta",
    "typecheck_backward",
]
