"""Traced stand-in for ``python -m plumbcalc.cli``.

    python perfbench/clihook.py SPANS_OUT <plumbcalc cli arguments...>

Imports the command-line module first, so its import costs what it costs
untraced, then wraps the layers, runs ``main`` and writes the spans.
"""

import sys

import plumbcalc.cli

from spans import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    code = plumbcalc.cli.main(sys.argv[2:])
    tracer.uninstall()
    tracer.dump(sys.argv[1])
    sys.exit(code)
