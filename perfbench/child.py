"""Run one ``wavefem`` CLI command in this process and write a result file.

Usage: python3 child.py RESULT_JSON MARK MODE CLI_ARGS...

MARK names the call whose first return ends set-up: ``verlet_step`` for
``simulate`` and ``assemble`` for ``spectrum``. MODE ``plain`` adds only
that one probe, which stores the system-wide monotonic clock, so the run
is otherwise the CLI as a user starts it. MODE ``trace`` also installs the
span wrappers of :mod:`spans` and writes the spans out.
"""

import json
import sys
import time

import spans


def _probe(module, name, result):
    fn = getattr(module, name)

    def first_return(*args, **kwargs):
        value = fn(*args, **kwargs)
        if "setup_mark" not in result:
            result["setup_mark"] = time.monotonic()
        return value

    setattr(module, name, first_return)


def main(argv):
    result_path, mark, mode, cli_args = argv[0], argv[1], argv[2], argv[3:]
    result = {}
    t = time.perf_counter()
    from wavefem import assembly, cli, dynamics, elements, spectral, vtk_io
    result["import_s"] = time.perf_counter() - t
    recorder = None
    if mode == "trace":
        recorder = spans.Recorder()
        spans.install(recorder, cli, assembly, dynamics, elements, spectral, vtk_io)
    _probe({"verlet_step": dynamics, "assemble": assembly}[mark], mark, result)
    result["rc"] = cli.main(cli_args)
    if recorder is not None:
        result["spans"] = recorder.spans
        result["counts"] = recorder.counts
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
