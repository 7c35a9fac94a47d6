"""Erasure coding substrate: GF(2^8) arithmetic and systematic Reed-Solomon.

Public API:

* :class:`repro.ec.reed_solomon.CodeParams` — ``(n, k)`` code parameters,
  with the paper's defaults :data:`RS_9_6` and :data:`RS_14_10`.
* :class:`repro.ec.reed_solomon.ReedSolomon` — encoder/decoder.
* :func:`repro.ec.stripe.encode_stripe` / :func:`repro.ec.stripe.decode_stripe`
  — variable-block stripes with implicit zero padding (Fusion's layout):
  encode returns the stripe's ``n`` shards, decode its ``k`` data blocks.
* :func:`repro.ec.stripe.stripe_codeword` / :func:`repro.ec.stripe.stripe_codewords`
  — the one solve that both rebuilds lost shards (repair) and proves
  that the readable shards form one codeword (scrub).
"""

from repro.ec.reed_solomon import (
    RS_9_6,
    RS_14_10,
    CodeParams,
    DecodeError,
    ReedSolomon,
    get_coder,
)
from repro.ec.stripe import (
    decode_stripe,
    encode_stripe,
)

__all__ = [
    "RS_9_6",
    "RS_14_10",
    "CodeParams",
    "DecodeError",
    "ReedSolomon",
    "get_coder",
    "decode_stripe",
    "encode_stripe",
]
