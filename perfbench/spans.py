"""Span tracer that times varbesov's layers from outside the package.

``Tracer.install`` replaces every attribute of a loaded ``varbesov.*``
module (and of ``numpy.fft``) that *is* one of the traced function objects
with a wrapper that records one span per call: (name, parent span index,
start ns, end ns, work).  Because the patch follows object identity rather
than a list of import sites, a function re-exported or imported under
another module stays covered.  ``uninstall`` restores every attribute.

Spans are kept in memory; ``layer_metrics`` turns them into per-layer
counts and times after the run.
"""

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time

import numpy.fft

# Public functions timed per layer, by defining module.
LAYERS = {
    "varbesov._kernels": ("scaled_modular", "plain_modular", "esssup_modular",
                          "log_holder_max", "eta_shift_curve"),
    "varbesov._solve": ("solve_threshold",),
    "varbesov.lebesgue": ("luxemburg_norm",),
    "varbesov.mixed": ("mixed_norm",),
    "varbesov.grid": ("spectral_derivative", "convolve"),
    "varbesov.littlewood_paley": ("lp_block", "besov_norm"),
    "varbesov.duality": ("extremal_witness", "random_dual_search"),
    "varbesov.commutator": ("commutator", "commutator_lhs_norm"),
    "varbesov.random_fields": ("band_limited_field", "band_limited_sequence",
                               "band_limited_vector_field"),
    "varbesov.exponents": ("local_log_holder",),
}

# Every numpy transform, real ones included, counts as an FFT.
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                 "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def _size(a):
    return int(getattr(a, "size", 1))


# Work recorded per call, from (args, result): nodes swept, anchored pairs
# visited, or points transformed.
_WORK = {
    "kernels.scaled_modular": lambda a, out: _size(a[0]),
    "kernels.plain_modular": lambda a, out: _size(a[0]),
    "kernels.esssup_modular": lambda a, out: _size(a[0]),
    "kernels.log_holder_max": lambda a, out: _size(a[2]) * _size(a[0]),
    "kernels.eta_shift_curve": lambda a, out: _size(a[2]) * _size(a[0]) * int(a[5]),
}


def _fft_work(args, out):
    return max(_size(args[0]), _size(out))


def span_name(module_name, func_name):
    """'varbesov._kernels', 'scaled_modular' -> 'kernels.scaled_modular'."""
    return f"{module_name.rsplit('.', 1)[-1].lstrip('_')}.{func_name}"


class Tracer:
    """Records spans for calls into the traced functions while installed.

    ``Tracer(solves_only=True)`` wraps only ``solve_threshold``: a light
    guard that counts the solves reaching ``max_evals`` (``maxed``).
    """

    def __init__(self, solves_only=False):
        self.solves_only = solves_only
        self.spans = []
        self._stack = [-1]
        self._patched = []
        self.maxed = 0

    def _record(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[sid] = (name, parent, t0, clock(), 0)
                raise
            t1 = clock()
            stack.pop()
            spans[sid] = (name, parent, t0, t1,
                          work(args, out) if work is not None else 0)
            return out

        return traced

    def _solve(self, name, fn):
        """solve_threshold: the span's work is the number of evaluations of
        its ``fn`` argument; solves that reach ``max_evals`` are tallied.
        Solves nest (an outer solve's ``fn`` runs inner solves), so each
        call keeps its own counter."""
        default_max = inspect.signature(fn).parameters["max_evals"].default

        def counted_solve(target, *args, **kwargs):
            evals = 0

            def counted(x):
                nonlocal evals
                evals += 1
                return target(x)

            out = fn(counted, *args, **kwargs)
            limit = kwargs.get("max_evals", args[2] if len(args) > 2 else default_max)
            if evals >= limit:
                self.maxed += 1
            return out, evals

        traced = self._record(name, counted_solve, lambda a, out: out[1])

        @functools.wraps(fn)
        def solve(*args, **kwargs):
            return traced(*args, **kwargs)[0]

        return solve

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (name, parent, t0, t1, 0)

    def install(self):
        wrappers = {}
        layers = LAYERS
        if self.solves_only:
            layers = {"varbesov._solve": LAYERS["varbesov._solve"]}
        for module_name, names in layers.items():
            module = sys.modules[module_name]
            for func_name in names:
                fn = getattr(module, func_name)
                name = span_name(module_name, func_name)
                if name == "solve.solve_threshold":
                    wrappers[id(fn)] = (fn, self._solve(name, fn))
                else:
                    wrappers[id(fn)] = (fn, self._record(name, fn, _WORK.get(name)))
        for func_name in () if self.solves_only else FFT_FUNCTIONS:
            fn = getattr(numpy.fft, func_name)
            wrappers[id(fn)] = (fn, self._record(f"fft.{func_name}", fn, _fft_work))
        sites = [m for n, m in sorted(sys.modules.items())
                 if n == "varbesov" or n.startswith("varbesov.")]
        sites.append(numpy.fft)
        for module in sites:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """Write the spans as gzip'd JSON: names table plus rows of
        [name index, parent, start ns, end ns, work]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], p, t0, t1, w] for n, p, t0, t1, w in self.spans]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))

