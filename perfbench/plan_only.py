"""Set-up probe: import railsim.cli, parse a command line and build the
command's plan, but run no trials.

    PYTHONPATH=$PWD/src python3 perfbench/plan_only.py gate --n 10

The wall time of this process is the benchmark's setup_s.  It follows
the first half of ``railsim.cli.main``.
"""

import sys

from railsim import cli


def main(argv) -> int:
    parser, _ = cli.build_parser()
    args = parser.parse_args(argv)
    cli.HANDLERS[args.cmd](args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
