"""The partition kernel.

Callers look up ``kernel.<function>`` at call time, so a profiler can swap
``kernel`` for a wrapper.
"""

from . import _kernel_py as kernel  # noqa: F401 (read as _backend.kernel)


def backend_name() -> str:
    """Name of the partition kernel in use."""
    return "python"
