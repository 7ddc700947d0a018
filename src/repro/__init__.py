"""repro: reproduction of "A Hybrid CPU-GPU System for Stitching Large
Scale Optical Microscopy Images" (Blattner et al., ICPP 2014).

Public API highlights:

- :class:`repro.Stitcher` -- three-phase stitching facade;
- :mod:`repro.impls` -- the six Table II implementations;
- :mod:`repro.synth` -- synthetic microscope acquisitions with ground truth;
- :mod:`repro.simulate` -- paper-scale performance reproduction (DES);
- :mod:`repro.pipeline` -- the general-purpose pipeline framework;
- :mod:`repro.faults` -- fault injection, retry policies, fault reports.

The names below resolve on first access (PEP 562), so ``import repro``
-- and with it ``python -m repro`` -- loads no numpy or scipy until a
command uses them.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the module that defines it.
_EXPORTS = {
    "Stitcher": "repro.core",
    "StitchResult": "repro.core",
    "BlendMode": "repro.core",
    "CcfMode": "repro.core",
    "pciam": "repro.core",
    "compose": "repro.core",
    "resolve_absolute_positions": "repro.core",
    "TileDataset": "repro.io",
    "read_tiff": "repro.io",
    "write_tiff": "repro.io",
    "make_synthetic_dataset": "repro.synth",
    "ErrorPolicy": "repro.faults",
    "FaultPlan": "repro.faults",
    "FaultReport": "repro.faults",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
