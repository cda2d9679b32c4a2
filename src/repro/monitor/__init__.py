"""Control-plane link monitoring: corruptd and the §5 automatic fallback."""

from .corruptd import Corruptd, LossWindow

__all__ = ["Corruptd", "LossWindow"]
