"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the coxlehmer modules from outside the
package: it rebinds the defining module's attribute and every name another
coxlehmer module bound to the same object with ``from ... import ...``, so
calls through either path are seen.  ``src/`` is never edited.

A span is (name, start, end, parent, op).  Spans nest through a stack, so a
span's self time is its duration minus the durations of its direct
children.  Counters sit at the same boundaries.  Everything stays in memory
until ``write`` is called at the end of a worker process.
"""

from __future__ import annotations

import gzip
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op)
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.op = "setup"
        self.active = True
        self._stack: list[list] = []  # [name, start, index, child seconds]

    # -- spans and counters

    def open(self, name: str) -> None:
        parent = self._stack[-1][2] if self._stack else -1
        self.spans.append(None)
        self._stack.append([name, time.perf_counter(), len(self.spans) - 1, 0.0, parent])

    def close(self) -> None:
        end = time.perf_counter()
        name, start, index, child, parent = self._stack.pop()
        dur = end - start
        self.spans[index] = (name, start, end, parent, self.op)
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        if self._stack:
            self._stack[-1][3] += dur

    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def paused(self):
        """Run the benchmark's own answer checks without tracing them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans if s is not None})
        ids = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# names " + " ".join(names) + "\n")
            fh.write("# name_id start end parent op\n")
            for s in self.spans:
                if s is not None:
                    fh.write(f"{ids[s[0]]} {s[1]:.7f} {s[2]:.7f} {s[3]} {s[4]}\n")

    # -- wrappers

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(result, args, kwargs) adds counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def generator_span(self, name, fn, counter=None):
        """Wrap a generator function: each next() is one span."""
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen
            return tracer._timed_iter(name, gen, counter)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_iter(self, name, gen, counter):
        while True:
            self.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.close()
            if counter:
                self.count(counter)
            yield item


def rebind(original, replacement, extra_maps=()) -> int:
    """Point every coxlehmer module attribute bound to `original` at
    `replacement`; returns the number of names rebound."""
    n = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "coxlehmer" or modname.startswith("coxlehmer.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                n += 1
    for mapping in extra_maps:
        for key, value in list(mapping.items()):
            if value is original:
                mapping[key] = replacement
                n += 1
    return n


def _route_name(args, kwargs):
    route = kwargs.get("route", args[2] if len(args) > 2 else "direct")
    return f"intervals.{route}"


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported coxlehmer."""
    from coxlehmer import cli, codes, coxeter, intervals, multicomplex, simplicial, verify

    t = tracer
    refusals = (ValueError, coxeter.SizeLimitError)

    def patch(module, attr, wrapper_of, extra_maps=()):
        original = getattr(module, attr)
        if rebind(original, wrapper_of(original), extra_maps) == 0:
            raise RuntimeError(f"could not rebind {module.__name__}.{attr}")

    # coxeter: enumeration, covers and downsets all happen in BruhatPoset.__init__
    init = coxeter.BruhatPoset.__init__

    def poset_init(self, *args, **kwargs):
        if not t.active:
            return init(self, *args, **kwargs)
        t.open("coxeter.enumerate")
        try:
            init(self, *args, **kwargs)
        finally:
            t.close()
        t.count("coxeter.enumerations")
        t.count("coxeter.elements", self.size)
        t.count("coxeter.covers", sum(map(len, self.covers_down)))
        t.count("coxeter.downset_bytes", sum((d.bit_length() + 7) // 8 for d in self._down))

    coxeter.BruhatPoset.__init__ = poset_init

    # codes
    for attr in ("code_a", "code_b", "code_d", "code_h3", "code_i2", "standard_code",
                 "dual_code", "quotient_chain_code", "enumerate_dihedral_codes"):
        patch(codes, attr, lambda f: t.span("codes.build", f))
    for attr in ("verify_d_factorization", "verify_h3_quotients"):
        patch(codes, attr, lambda f: t.span("codes.verify", f))
    patch(codes, "verify_code", lambda f: t.span(
        "codes.verify", f, lambda r, a, k: t.count("codes.verify_calls")))

    # intervals
    patch(intervals, "interval_ideal", lambda f: t.span("intervals.ideal", f))

    def route_wrapper(f):
        def wrapper(*args, **kwargs):
            if not t.active:
                return f(*args, **kwargs)
            t.count("intervals.route_calls")
            t.open(_route_name(args, kwargs))
            try:
                return f(*args, **kwargs)
            except refusals:
                t.count("intervals.route_refusals")
                raise
            finally:
                t.close()
        wrapper.__wrapped__ = f
        return wrapper

    patch(intervals, "interval_poincare", route_wrapper)
    for attr in ("palindromic_intervals", "principal_set", "unimodal_set",
                 "interval_polynomials"):
        patch(intervals, attr, lambda f: t.span("intervals.scan", f))

    maxima = multicomplex.OrderIdeal.maxima

    def counted_maxima(self):
        result = maxima(self)
        if t.active and t.current() == "intervals.maxima":
            k = len(result)
            t.count("intervals.maxima_points", k)
            t.count("intervals.ie_terms", 2 ** k - 1)
        return result

    multicomplex.OrderIdeal.maxima = counted_maxima

    # simplicial
    def count_facets(sc, args, kwargs):
        t.count("simplicial.facets", sc.facet_count)

    for attr in ("complex_of_ideal", "build_box_complex"):
        patch(simplicial, attr, lambda f: t.span("simplicial.complex", f, count_facets))

    def count_shelling(result, args, kwargs):
        r = len(args[0].facets)
        t.count("simplicial.shelling_calls")
        t.count("simplicial.shelling_pairs", r * (r - 1) // 2)

    patch(simplicial, "verify_shelling", lambda f: t.span("simplicial.shelling", f, count_shelling))
    for attr in ("f_vector", "h_from_f", "f_from_h"):
        patch(simplicial, attr, lambda f: t.span("simplicial.fh", f))
    patch(simplicial, "is_vertex_decomposable", lambda f: t.span("simplicial.vd", f))
    for attr in ("is_flag", "is_flag_ideal"):
        patch(simplicial, attr, lambda f: t.span("simplicial.flag", f))

    # multicomplex
    for attr in ("linear_extensions", "sample_linear_extensions"):
        patch(multicomplex, attr, lambda f: t.generator_span(
            "multicomplex.extensions", f, "multicomplex.extensions"))
    patch(multicomplex, "count_linear_extensions",
          lambda f: t.span("multicomplex.count_extensions", f))
    patch(multicomplex, "all_order_ideals",
          lambda f: t.generator_span("multicomplex.ideals", f))
    patch(multicomplex, "random_order_ideals", lambda f: t.span("multicomplex.ideals", f))

    # verify: one span per suite, with its check count
    for key in list(verify.SUITES):
        def suite_wrapper(f, key=key):
            return t.span(f"verify.{key}", f, lambda rep, a, k: t.count(
                f"verify.{key}.checks", rep.instances))
        patch(verify, verify.SUITES[key].__name__, suite_wrapper, (verify.SUITES,))

    # cli: argument parsing
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = t.span("cli.parse", build_parser)()
        parser.parse_args = t.span("cli.parse", parser.parse_args)
        return parser

    traced_build_parser.__wrapped__ = build_parser
    rebind(build_parser, traced_build_parser)
