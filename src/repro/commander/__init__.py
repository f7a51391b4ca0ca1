"""Per-host commander: delivers migration commands to processes."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "commander": ("Commander", "CommandLog"),
})
