"""Per-layer tracing from outside the package.

`Tracer.install(bx)` rebinds the names each layer's callers look up (module
globals, class attributes, dispatch-table entries) to wrappers that record a
span per call; `uninstall` puts the originals back. A layer's self time is
its spans' duration minus the time of the spans nested inside them. Spans
are folded into per-layer totals as they close rather than kept one by one.
A name the package no longer has is skipped, so its time shows up as
unattributed (lower `trace.coverage`) instead of breaking the run.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


def _bits(x) -> int:
    """Bit size of an exact scalar: largest numerator or denominator."""
    parts = (x.re, x.im) if hasattr(x, "im") else (x,)
    return max(max(abs(p.numerator).bit_length(), p.denominator.bit_length()) for p in parts)


def _coeff_bits(view) -> int:
    return max((_bits(c) for c in view.scalars()), default=0)


class Tracer:
    def __init__(self):
        self._patches: list = []
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.sums: dict = defaultdict(int)
        self.maxima: dict = defaultdict(int)
        # open spans' child time; the bottom entry collects top-level spans
        self._stack: list = [0.0]

    def reset(self):
        """Clear the totals in place (installed wrappers hold references)."""
        for table in (self.self_s, self.calls, self.sums, self.maxima):
            table.clear()
        self._stack[:] = [0.0]

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def _wrap(self, layer, fn, after=None):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def traced(*args, **kwargs):
            name = layer(args) if callable(layer) else layer
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                stack[-1] += dt
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, key, layer, after=None):
        is_map = isinstance(owner, dict)
        original = owner.get(key) if is_map else getattr(owner, key, None)
        if original is None:
            return
        wrapped = self._wrap(layer, original, after)
        if is_map:
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def _patch_expand(self, cls):
        """The first `.equation` of a structured equation expands it; later
        reads hit the cache and are not spans."""
        prop = getattr(cls, "equation", None)
        if not isinstance(prop, property):
            return

        def count_terms(args, result):
            self.sums["terms"] += len(result.terms)
            self.sums["expansions"] += 1

        traced = self._wrap("elim.expand", prop.fget, count_terms)

        def getter(qe):
            if getattr(qe, "_equation", True) is None:
                return traced(qe)
            return prop.fget(qe)

        setattr(cls, "equation", property(getter))
        self._patches.append((cls, "equation", prop))

    def install(self, bx):
        cli, decide, elim, exactnum, poly = bx.cli, bx.decide, bx.elim, bx.exactnum, bx.poly
        sums, maxima = self.sums, self.maxima

        def kept(args, m):
            sums["clauses_kept"] += m.d
            sums["clauses_raw"] += m.raw_clause_count

        def json_bytes(args, text):
            sums["json_bytes"] += len(text)

        def verdict(args, result):
            sums["decisions"] += 1
            sums["true"] += result is True

        def gcd_bits(args, result):
            maxima["coeff_bits"] = max(maxima["coeff_bits"], *(_coeff_bits(v) for v in args))

        def sturm(args, chain):
            sums["sturm_chains"] += 1
            sums["sturm_length"] += len(chain.polys)
            bits = max((_bits(c) for c in chain.polys[0]), default=0)
            maxima["coeff_bits"] = max(maxima["coeff_bits"], bits)

        def three_squares(args, result):
            maxima["three_squares_bits"] = max(maxima["three_squares_bits"], args[0].bit_length())

        self._patch(cli, "parse", "formula.parse")
        for name in ("parse", "parse_term"):
            self._patch(elim, name, "formula.parse")
        for name in ("to_dnf", "to_cnf"):
            self._patch(cli, name, "formula.normal_form", kept)
            self._patch(elim, name, "formula.normal_form")
        self._patch(cli, "rewrite_neq_to_orders", "formula.normal_form")

        for shape in list(getattr(elim, "_BUILDERS", {})):
            self._patch(elim._BUILDERS, shape, "elim.build")
        self._patch_expand(elim.QuantifiedEquation)
        for name in ("substituted_equation", "substituted_brackets",
                     "substituted_factors", "substituted_guard_and_addends"):
            self._patch(elim.QuantifiedEquation, name, "elim.substitute")
        self._patch(cli, "to_json", "elim.to_json", json_bytes)
        self._patch(cli, "from_json", "elim.from_json")
        self._patch(cli, "degree_report", "elim.degree_report")
        self._patch(elim, "extract_witness", "elim.extract_witness")

        for shape in list(getattr(decide, "DECIDER_FOR_SHAPE", {})):
            self._patch(decide.DECIDER_FOR_SHAPE, shape, f"decide.{shape.value}", verdict)
        self._patch(decide, "check_witness", "decide.check_witness")

        self._patch(decide, "gcd_univariate", "poly.gcd", gcd_bits)
        self._patch(decide, "squarefree_part", "poly.squarefree", gcd_bits)
        self._patch(decide, "as_univariate", "poly.as_univariate")
        self._patch(decide, "count_real_roots", "poly.real_roots")
        self._patch(poly, "sturm_chain", "poly.sturm", sturm)

        self._patch(elim, "positivity_witness_q", "exactnum.positivity_witness")
        self._patch(exactnum, "three_squares_pair", "exactnum.positivity_witness", three_squares)
        self._patch(decide, "is_sum_three_squares", "exactnum.is_sum_three_squares")
        self._patch(exactnum, "is_sum_three_squares", "exactnum.is_sum_three_squares")

        self._patch(cli, "main", lambda args: f"cli.{args[0][0]}")

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()
