"""Host-speed probe for the processes a ``repro-serve`` node forks.

In untraced ``fig5_nodes`` samples, ``worker.py`` boots the node with
this directory first on its ``PYTHONPATH`` and ``PERFBENCH_PROBE_DIR``
naming an empty directory.  The node process, from its start, and every
process it forks (one per simulation) then run the probe of
``hostclock.py`` and append their bursts to ``<dir>/<pid>.txt``.  The
worker rescales the node's boot by the node's own bursts and the op by
those of the forked processes, since they, not the worker, do that
work.  Without the variable this module does nothing.
"""

import os

if os.environ.get("PERFBENCH_PROBE_DIR"):
    import importlib.util

    _spec = importlib.util.spec_from_file_location(
        "perfbench_hostclock",
        os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "hostclock.py"))
    _hostclock = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_hostclock)

    def _start_probe() -> None:
        log = os.open(os.path.join(os.environ["PERFBENCH_PROBE_DIR"],
                                   f"{os.getpid()}.txt"),
                      os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        _hostclock.Probe(log).start()

    _start_probe()
    os.register_at_fork(after_in_child=_start_probe)
