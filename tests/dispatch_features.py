"""Print the CPU features to put in NPY_DISABLE_CPU_FEATURES for a dispatch level.

    python tests/dispatch_features.py avx2     # X86_V4 and every AVX512* found
    python tests/dispatch_features.py x86_v2   # every feature found above X86_V2

numpy picks its ufunc kernels by the features np.show_runtime lists as
found; disabling those named here runs it at the given level.  The line is
empty when no such feature is found.
"""

import contextlib
import io
import re
import sys

import numpy as np


def main(argv):
    if argv not in (["avx2"], ["x86_v2"]):
        sys.exit("usage: dispatch_features.py avx2|x86_v2")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        np.show_runtime()
    found = re.search(r"found.: \[([^\]]*)\]", out.getvalue())
    names = re.findall(r"\w+", found[1]) if found else []
    if argv == ["avx2"]:
        names = [n for n in names if n == "X86_V4" or n.startswith("AVX512")]
    print(" ".join(names))


if __name__ == "__main__":
    main(sys.argv[1:])
