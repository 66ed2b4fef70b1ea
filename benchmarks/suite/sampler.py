"""A wall-clock stack sampler that charges each sample to a layer.

A background thread wakes every ``INTERVAL_S`` seconds, takes the
sampled thread's current Python stack and walks it from the innermost frame
outwards to the first frame ``classify`` assigns a layer to.  Frames it
does not classify (the standard library, numpy, the benchmark's own
code) are skipped, so their time goes to their nearest classified
caller.  A stack with no classified frame counts as ``OUTSIDE``.

Attributing the innermost frame makes a generator's work land where it
runs: a ``yield from`` chain puts the callee's frame innermost, not the
outermost process generator.  Sampling costs a few percent of wall time
where a tracing profiler such as cProfile costs several times the run
and inflates layers made of many small calls.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from types import CodeType
from typing import Callable, Dict, Optional

#: The count key for samples with no classified frame on the stack.
OUTSIDE = "<outside>"
#: Seconds between samples.
INTERVAL_S = 0.001


class StackSampler:
    """Samples the creating thread's stack from a daemon thread until stopped.

    ``counts`` maps layer names (and :data:`OUTSIDE`) to sample counts.
    The GIL bounds the real rate: the sampler runs only when the sampled
    thread yields the interpreter, so set ``sys.setswitchinterval`` near
    :data:`INTERVAL_S` in the process being sampled.
    """

    def __init__(self, classify: Callable[[str], Optional[str]]) -> None:
        self.classify = classify
        self.thread_id = threading.get_ident()
        self.counts: Counter = Counter()
        self._layers: Dict[CodeType, Optional[str]] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def start(self) -> None:
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="stack-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "StackSampler":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _layer_of(self, code: CodeType) -> Optional[str]:
        try:
            return self._layers[code]
        except KeyError:
            layer = self._layers[code] = self.classify(code.co_filename)
            return layer

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            frame = sys._current_frames().get(self.thread_id)
            layer = None
            while frame is not None and layer is None:
                layer = self._layer_of(frame.f_code)
                frame = frame.f_back
            del frame
            self.counts[layer or OUTSIDE] += 1
