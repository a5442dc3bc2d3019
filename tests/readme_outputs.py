"""Write every output of the README's `## Command line` block.

    PYTHONPATH=src python tests/readme_outputs.py OUTDIR

Command line i of the block (0-based, comments and `--outdir out`
stripped) runs through `fowlerlab.cli.main` in this process and writes
its files into `OUTDIR/<i>/`; what it prints is discarded, timings
included.  Two trees' outputs then compare with one `diff -r`.  The exit
status is 1 if a command line returns non-zero.
"""

import contextlib
import io
import os
import re
import sys

from fowlerlab import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_command_lines():
    """The README's "Command line" block, comments and `--outdir out`
    stripped."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme,
                      re.S).group(1)
    return [" ".join(line.split("#")[0].replace("--outdir out", "").split())
            for line in block.splitlines() if line.strip()]


def main(outdir):
    failed = []
    for i, line in enumerate(readme_command_lines()):
        argv = line.split()[1:] + ["--outdir", os.path.join(outdir, str(i))]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                failed.append(line)
    for line in failed:
        print("failed:", line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
