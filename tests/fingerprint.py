"""The machine fingerprint that the byte contract's digests were made on.

The float kernels under evf differ by CPU target, and they round
differently: numpy picks its SIMD loops (exp, tanh, log, ...) at import
from the targets the CPU offers, and OpenBLAS picks a matmul core at load.
Besides evf's own code, three things decide the bits of its artifacts: the
numpy version, the OpenBLAS configuration with the core it runs, and
numpy's active dispatch targets. ``NPY_DISABLE_CPU_FEATURES`` and
``OPENBLAS_CORETYPE`` change the last two for one process.

Run as a script, it prints the fingerprint as one JSON line.
"""

import ctypes
import json
from pathlib import Path

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_", "scipy_openblas_get_config",
    "openblas_get_config64_", "openblas_get_config",
)


def openblas_config() -> str | None:
    """The config string of the OpenBLAS bundled with numpy, which names the core chosen at load, or None."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))  # the library numpy already loaded
        for symbol in _CONFIG_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def machine_fingerprint() -> dict:
    return {
        "numpy": np.__version__,
        "openblas": openblas_config(),
        "cpu_dispatch": [target for target in __cpu_dispatch__ if __cpu_features__.get(target)],
    }


if __name__ == "__main__":
    print(json.dumps(machine_fingerprint(), sort_keys=True))
