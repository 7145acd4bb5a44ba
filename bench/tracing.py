"""In-memory span tracer installed from the benchmark's side.

Nothing in ``src/`` is edited.  :meth:`Tracer.install` replaces every public
function of the traced layer modules, at every ``morrey_sparse`` module that
binds it, with a wrapper that records a span, and replaces the 3-D transform
entry points of ``numpy.fft`` and ``scipy.fft`` with wrappers that record a
transform span charged to the layer of the innermost open span.
:meth:`Tracer.uninstall` restores every binding.

A span is ``[id, parent, op, name, layer, start, end, info]``.  Spans stay in
memory and are written out by the caller when the run ends.  A span's self
time is its duration minus the durations of its children (transforms
included), so the self times of one op's spans add up to the op's wall time.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import os
import sys
import time

LAYERS = ("grid", "fields", "sparseness", "verify", "morrey", "nse", "cli")
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = {"rfftn": True, "fftn": True, "irfftn": False, "ifftn": False}
#: spans that also record the ball-spectrum cache misses they caused
MISS_PROBED = ("morrey.gm_norm",)

perf_counter = time.perf_counter


def _batch_count(a, s, axes) -> int:
    """Number of independent transforms in one n-D call (batch-expanded)."""
    ndim = len(a.shape)
    if axes is None:
        axes = range(ndim - len(s), ndim) if s is not None else range(ndim)
    done = {ax % ndim for ax in axes}
    return math.prod(a.shape[i] for i in range(ndim) if i not in done)


class _TracedIterator:
    """Iterator over a traced generator: one span per resumption, so the
    span covers iteration (not creation) and never overlaps the consumer."""

    def __init__(self, tracer: "Tracer", gen, name: str, layer: str):
        self._tracer, self._gen, self._name, self._layer = tracer, gen, name, layer

    def __iter__(self):
        return self

    def __next__(self):
        if not self._tracer.on:
            return next(self._gen)
        sp = self._tracer.open(self._name, self._layer)
        try:
            return next(self._gen)
        finally:
            self._tracer.close(sp)


class Tracer:
    """Span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op = None
        self.on = False
        self.wrapped: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = {
            "grid.save_field": self._file_bytes_hook(1),
            "grid.load_field": self._file_bytes_hook(0),
            "cli.main": self._cli_command_hook,
            "nse.simulate": self._simulate_hook,
            "verify.check_lemma_l2": self._check_hook,
            "morrey.gm_norm": self._gm_norm_hook,
        }
        cache = getattr(sys.modules.get("morrey_sparse.grid"), "_ball_spectrum_cached", None)
        self.cache_info = getattr(cache, "cache_info", None)

    # -- span recording ---------------------------------------------------

    def open(self, name: str, layer: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        sp = [len(self.spans), parent, self.op, name, layer, perf_counter(), None, None]
        self.spans.append(sp)
        self.stack.append(sp)
        return sp

    def close(self, sp: list) -> None:
        sp[6] = perf_counter()
        if self.stack.pop() is not sp:
            raise RuntimeError(f"span {sp[3]} closed out of order")

    @contextlib.contextmanager
    def recording(self, op, name: str):
        """Record spans for one op under a root span of the ``bench`` layer."""
        self.op = op
        self.on = True
        root = self.open(name, "bench")
        try:
            yield
        finally:
            self.close(root)
            self.on = False

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        hook = self._hooks.get(name)
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                return _TracedIterator(tracer, fn(*args, **kwargs), name, layer)
            return gen_wrapper

        probe = tracer.cache_misses if name in MISS_PROBED else None

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            misses0 = probe() if probe is not None else 0
            sp = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sp)
            if hook is not None:
                sp[7] = hook(args, kwargs, result)
            if probe is not None:
                sp[7] = dict(sp[7] or {}, misses=probe() - misses0)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_fft(self, fn, name: str, forward: bool):
        tracer = self

        def fft_wrapper(a, *args, **kwargs):
            if not tracer.on:
                return fn(a, *args, **kwargs)
            charged = tracer.stack[-1][4] if tracer.stack else "bench"
            sp = tracer.open(name, "fft")
            try:
                out = fn(a, *args, **kwargs)
            finally:
                tracer.close(sp)
            s = kwargs.get("s", args[0] if args else None)
            axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
            sp[7] = {"charged": charged, "forward": forward,
                     "transforms": _batch_count(a, s, axes),
                     "bytes": int(getattr(a, "nbytes", 0)) + int(out.nbytes)}
            return out
        fft_wrapper.__wrapped__ = fn
        return fft_wrapper

    @staticmethod
    def _file_bytes_hook(path_index: int):
        def hook(args, kwargs, result):
            path = args[path_index] if len(args) > path_index else kwargs.get("path")
            try:
                return {"bytes": os.path.getsize(path)}
            except (OSError, TypeError):
                return None
        return hook

    @staticmethod
    def _cli_command_hook(args, kwargs, result):
        argv = args[0] if args else kwargs.get("argv")
        return {"command": argv[0] if argv else None, "exit": result}

    @staticmethod
    def _simulate_hook(args, kwargs, result):
        cfg = args[0] if args else kwargs.get("config")
        return {"steps": int(round(cfg.t_end / cfg.dt))}

    def cache_misses(self) -> int:
        return self.cache_info().misses if self.cache_info is not None else 0

    @staticmethod
    def _gm_norm_hook(args, kwargs, result):
        params = args[1] if len(args) > 1 else kwargs.get("params")
        return {"nodes": len(getattr(params, "scales", ()))}

    @staticmethod
    def _check_hook(args, kwargs, result):
        useful = bool(getattr(result, "premise_holds", False)) and not getattr(
            result, "degenerate", False)
        return {"useful": useful}

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions and transform entry points everywhere."""
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"morrey_sparse.{layer}")
            if mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(val)
                        or val.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                replace[id(val)] = self._wrap(val, name, layer)
                self.wrapped.add(name)
                self._set(mod, attr, replace[id(val)])
        for modname in FFT_MODULES:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, forward in FFT_FUNCTIONS.items():
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                if id(fn) not in replace:
                    replace[id(fn)] = self._wrap_fft(fn, f"{modname}.{attr}", forward)
                self._set(mod, attr, replace[id(fn)])
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "morrey_sparse"
                                   or modname.startswith("morrey_sparse.")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = replace.get(id(val))
                if wrapper is not None and val is not wrapper:
                    self._set(mod, attr, wrapper)

    def _set(self, obj, attr: str, value) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        self.on = False
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def analyse(self) -> dict:
        """Per-span self time and inclusive (all-descendant) transform counts."""
        n = len(self.spans)
        child_time = [0.0] * n
        incl_fft = [0] * n
        incl_fwd = [0] * n
        for sp in reversed(self.spans):
            sid, parent = sp[0], sp[1]
            if sp[4] == "fft":
                incl_fft[sid] += sp[7]["transforms"]
                incl_fwd[sid] += sp[7]["transforms"] if sp[7]["forward"] else 0
            if parent is not None:
                child_time[parent] += sp[6] - sp[5]
                incl_fft[parent] += incl_fft[sid]
                incl_fwd[parent] += incl_fwd[sid]
        self_time = [sp[6] - sp[5] - child_time[sp[0]] for sp in self.spans]
        return {"self": self_time, "fft": incl_fft, "fwd": incl_fwd}

    def dump(self, path) -> None:
        """Write spans as JSON lines (one span per line)."""
        import json

        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({"id": sp[0], "parent": sp[1], "op": sp[2],
                                     "name": sp[3], "layer": sp[4], "start": sp[5],
                                     "end": sp[6], "info": sp[7]}) + "\n")
