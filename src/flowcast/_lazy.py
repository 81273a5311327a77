"""numpy, loaded when a flowcast function first uses it.

Loading numpy costs most of a short command's start, and a command such as
``report`` needs none of it. So each module takes ``np`` from here
(``from ._lazy import np``) and reads it only inside functions, never while
the module loads. Until then ``np`` is a stand-in: the first attribute read
on it imports numpy and rebinds ``np`` to numpy itself in every loaded
flowcast module, so each later use is a plain global lookup.
"""

import sys
from typing import TYPE_CHECKING


class _Numpy:
    """numpy before its first use."""

    def __getattr__(self, name):
        import numpy
        for module_name, module in list(sys.modules.items()):
            if (module_name.partition(".")[0] == "flowcast"
                    and getattr(module, "np", None) is self):
                module.np = numpy
        return getattr(numpy, name)


if TYPE_CHECKING:
    import numpy as np
else:
    np = _Numpy()
