"""Mutation check of the tape: does the suite notice a wrong adjoint rule,
a node recorded when it should not be (or not when it should), or a wrong
parameter name?

From the repository root::

    python tools/mutants.py

Each mutant below is one text substitution in one file of ``src/aotlab``.
In ``autodiff.py`` most break one adjoint rule: a gradient of ``add``,
``sub``, ``mul`` or ``div`` with a flipped sign or swapped operands; a
flipped sign or a dropped term in the derivative of each unary op
(``neg``, ``exp``, ``sigmoid``, ``relu``, ``rsqrt``, ``cos``, ``gelu``);
either ``matmul`` operand without its transpose; the ``tsum`` and
``tmean`` reductions; a flipped gradient through ``reshape``,
``transpose``, ``broadcast_to``, ``concat`` and ``_unbroadcast``; and the
accumulation in ``Tape.backward``.  Some break ``node``, which decides
whether an output joins the tape: it records outputs whose inputs need no
grad, or a call site leaves out one of its inputs.  Three break
``Module.named``, the walk that names every parameter: one skips the
nested modules, one lists the names in reverse, one names the items of a
list without their index.  The mutants of
``sinkhorn.py`` and ``blocks.py`` break the backward of the two fused
nodes: a Sinkhorn sweep's column term with a flipped sign, one sweep too
few replayed, the sweep input and the row-normalized matrix swapped; a
GroupNorm backward that drops one of the two variance terms, sums its
broadcast without the C-ordered copy, lets numpy reuse a temporary as a
sum's output, or flips the sign of the mean term.
The others in ``blocks.py`` break the fused adaptive nodes: a dropped
term or gradient into the pooled vector, a flipped sign in the simplex
term, a lost factor 2 in ``d``, the maps recorded in another order (which
changes the order of the sum into the pooled vector), the factors of the
contraction's or the scatter's two gradients swapped, a sum that lets
numpy reuse a temporary as its output (which changes the output's
layout), T untransposed in the stream mix's gradient, and non-uniform
constant maps.  The mutants of
``train.py`` break the flat optimizer and the clip: no bias correction, a
flipped decay sign, a moment written to a copy instead of the buffer, a
missing gradient taken as ones, the clip's scale not applied or applied
only after the moments, parameters of mixed dtypes accepted, an update
never bound to the parameters, loaded moments that replace the views
instead of filling them, a clip-norm sum one element short, and a None
gradient counted in the norm as ones.  One more in ``autodiff.py`` keeps strided
gradients uncopied in ``Tape.backward``.  The mutant of ``model.py`` runs
a window of another dtype without casting it to the model's precision.  For each mutant the repository is copied to
a temporary directory, the mutant is applied there, and the suite runs::

    python -m pytest -x -q tests bench/tests --deselect tests/test_acceptance.py

A mutant survives when that run passes.  The unmutated copy is run first,
since a suite that already fails would kill every mutant.  The tool prints
every survivor and exits 1 if there is one; it never writes to the working
tree.  The runs are sequential and each takes up to a full suite run, so
the tool is not part of the regular test run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AUTODIFF = os.path.join("src", "aotlab", "autodiff.py")
SINKHORN = os.path.join("src", "aotlab", "sinkhorn.py")
BLOCKS = os.path.join("src", "aotlab", "blocks.py")
MODEL = os.path.join("src", "aotlab", "model.py")
TRAIN = os.path.join("src", "aotlab", "train.py")
COMMAND = [sys.executable, "-m", "pytest", "-x", "-q", "tests", "bench/tests",
           "--deselect", "tests/test_acceptance.py"]
IGNORE = shutil.ignore_patterns(".git", "bench_runs", "__pycache__",
                                ".pytest_cache", ".hypothesis")

# file -> [(name, text in that file, replacement)]; each text occurs once
MUTANTS = {AUTODIFF: [
    ("add: grad a sign", "np.add, a, b, lambda g, ad, bd: (g, g)",
     "np.add, a, b, lambda g, ad, bd: (-g, g)"),
    ("add: grad b sign", "np.add, a, b, lambda g, ad, bd: (g, g)",
     "np.add, a, b, lambda g, ad, bd: (g, -g)"),
    ("sub: grad a sign", "np.subtract, a, b, lambda g, ad, bd: (g, -g)",
     "np.subtract, a, b, lambda g, ad, bd: (-g, -g)"),
    ("sub: grad b sign", "np.subtract, a, b, lambda g, ad, bd: (g, -g)",
     "np.subtract, a, b, lambda g, ad, bd: (g, g)"),
    ("mul: grad a uses ad", "(g * bd, g * ad)", "(g * ad, g * ad)"),
    ("mul: grad b uses bd", "(g * bd, g * ad)", "(g * bd, g * bd)"),
    ("mul: grad a sign", "(g * bd, g * ad)", "(-g * bd, g * ad)"),
    ("div: grad a uses ad", "(g / bd, -g * ad / (bd * bd))",
     "(g / ad, -g * ad / (bd * bd))"),
    ("div: grad a sign", "(g / bd, -g * ad / (bd * bd))",
     "(-g / bd, -g * ad / (bd * bd))"),
    ("div: grad b swaps ad and bd", "(g / bd, -g * ad / (bd * bd))",
     "(g / bd, -g * bd / (ad * ad))"),
    ("div: grad b sign", "(g / bd, -g * ad / (bd * bd))",
     "(g / bd, g * ad / (bd * bd))"),
    ("neg: grad sign", "_unary(a, -a.data, -1)", "_unary(a, -a.data, 1)"),
    ("exp: grad sign", "_unary(a, value, value)", "_unary(a, value, -value)"),
    ("sigmoid: grad sign", "value * (1.0 - value)", "-value * (1.0 - value)"),
    ("relu: grad sign", "(a.data > 0).astype(a.data.dtype)",
     "-(a.data > 0).astype(a.data.dtype)"),
    ("rsqrt: grad sign", "-0.5 * value / a.data", "0.5 * value / a.data"),
    ("cos: grad sign", "np.cos(a.data), -np.sin(a.data)",
     "np.cos(a.data), np.sin(a.data)"),
    ("gelu: grad drops the cubic term", "(1.0 + 3 * 0.044715 * (x * x))", "1.0"),
    ("matmul: grad a untransposed", "acc(a, g @ bd.swapaxes(-1, -2))",
     "acc(a, g @ bd)"),
    ("matmul: grad b untransposed", "acc(b, ad.swapaxes(-1, -2) @ g)",
     "acc(b, ad @ g)"),
    ("tsum: no expand_dims", "            g = np.expand_dims(g, axis)\n",
     "            pass\n"),
    ("tsum: expand_dims also under keepdims",
     "if axis is not None and not keepdims:", "if axis is not None:"),
    ("tmean: count over all elements", "(1.0 / (a.size // total.size))",
     "(1.0 / a.size)"),
    ("reshape: grad sign", "acc(a, g.reshape(in_shape))",
     "acc(a, -g.reshape(in_shape))"),
    ("transpose: grad sign", "acc(a, g.transpose(inverse))",
     "acc(a, -g.transpose(inverse))"),
    ("transpose: grad by the forward axes", "acc(a, g.transpose(inverse))",
     "acc(a, g.transpose(axes))"),
    ("broadcast_to: grad sign", "lambda g, acc: acc(a, g), a)",
     "lambda g, acc: acc(a, -g), a)"),
    ("concat: grad sign", "acc(t, part)", "acc(t, -part)"),
    ("_unbroadcast: reduced grad sign",
     "keepdims=True)\n    return g\n", "keepdims=True)\n    return -g\n"),
    ("Tape.backward: overwrite in the pass",
     "store[t] = held + g", "store[t] = g"),
    ("Tape.backward: keeps strided gradients uncopied",
     "elif g.dtype == t.data.dtype and g.flags.c_contiguous:", "elif True:"),
    ("Tape.backward: overwrite across calls",
     "t.grad = g if t.grad is None else t.grad + g", "t.grad = g"),
    ("Module.named: nested modules skipped",
     "out.update(value.named(name))", "pass"),
    ("Module.named: list items without their index",
     "out.update(item.named(f\"{name}.{i}\"))", "out.update(item.named(name))"),
    ("Module.named: names in reverse",
     "for attr, value in vars(self).items():",
     "for attr, value in reversed(vars(self).items()):"),
    ("node: records outputs whose inputs need no grad",
     "requires_grad=tracking(*inputs))", "requires_grad=active_tape() is not None)"),
    ("node: records every output, tape or not",
     "    if out.requires_grad:\n        record(", "    if True:\n        record("),
    ("_binary: drops input b", "return node(data, bwd, a, b)",
     "return node(data, bwd, a)"),
    ("matmul: drops input b", "return node(ad @ bd, bwd, a, b)",
     "return node(ad @ bd, bwd, a)"),
    ("concat: keeps only the first input", "return node(data, bwd, *tensors)",
     "return node(data, bwd, tensors[0])"),
], SINKHORN: [
    ("sinkhorn: column term sign", "g = g / cols - (g * m_rows",
     "g = g / cols + (g * m_rows"),
    ("sinkhorn: one sweep too few replayed",
     "zip(reversed(ins), reversed(steps))",
     "zip(reversed(ins[1:]), reversed(steps[1:]))"),
    ("sinkhorn: m_in and m_rows swapped",
     "for m_in, (rows, m_rows, cols, _) in", "for m_rows, (rows, m_in, cols, _) in"),
], BLOCKS: [
    ("GroupNorm: drops one g_sq term", "g_centered = gy_r + g_sq + g_sq",
     "g_centered = gy_r + g_sq"),
    ("GroupNorm: sum left to reuse a temporary", "g_centered = gy_r + g_sq + g_sq",
     "g_centered = gy * r + g_sq + g_sq"),
    ("GroupNorm: no C-order copy", "centered.shape).copy() * centered",
     "centered.shape) * centered"),
    ("GroupNorm: g_mean sign", "g_mean = ad._unbroadcast(-g_centered",
     "g_mean = ad._unbroadcast(g_centered"),
    ("GroupNorm: drops input shift", "bwd, x, scale, shift)", "bwd, x, scale)"),
    ("pool_rms: drops one factor of vec * vec", "g_vr * r + g_sq + g_sq",
     "g_vr * r + g_sq"),
    ("gated_map: drops the gradient into vec",
     "acc(vec, g_mm @ pd.swapaxes(-1, -2))", "pass"),
    ("gated_map: flipped sign of the simplex normalizer term",
     "(-g * s / (total * total))", "(g * s / (total * total))"),
    ("gated_map: lost factor 2 in d", "lambda g: g * 2.0 * (s * (1.0 - s))",
     "lambda g: g * (s * (1.0 - s))"),
    ("compute_maps: T before a, so vec sums a, d, T",
     "    a = gated_map(vec, params.phi_a, params.alpha_a, params.b_a, _simplex)\n"
     "    d = gated_map(vec, params.phi_d, params.alpha_d, params.b_d, _twice_sigmoid)\n"
     "    raw_t = gated_map(vec, params.phi_t, params.alpha_t, params.b_t,\n"
     "                      _reshaped((b, n, n)))\n",
     "    raw_t = gated_map(vec, params.phi_t, params.alpha_t, params.b_t,\n"
     "                      _reshaped((b, n, n)))\n"
     "    d = gated_map(vec, params.phi_d, params.alpha_d, params.b_d, _twice_sigmoid)\n"
     "    a = gated_map(vec, params.phi_a, params.alpha_a, params.b_a, _simplex)\n"),
    ("contract: gradients into x and a swap factors",
     "acc(x, g_xa * ar)\n        acc(a, (g_xa * xd)",
     "acc(x, g_xa * xd)\n        acc(a, (g_xa * ar)"),
    ("combine: scatter gradients into d and y swap factors",
     "acc(d, (g * yr).sum(axis=(2, 3, 4)))\n        acc(y, (g * dr).sum(axis=1))",
     "acc(d, (g * dr).sum(axis=(2, 3, 4)))\n        acc(y, (g * yr).sum(axis=1))"),
    ("combine: sum left to reuse a temporary",
     "return ad.node(mixed + scattered,", "return ad.node(mixed + dr * yr,"),
    ("combine: T untransposed in the gradient into x",
     "(td.swapaxes(-1, -2) @ g_mixed)", "(td @ g_mixed)"),
    ("identity_maps: a off the stream mean", "np.full((b, n), 1.0 / n,",
     "np.full((b, n), 1.0 / (n + 1),"),
], TRAIN: [
    ("AdamW: no bias correction", "m_hat = m / (1.0 - b1 ** self.t)", "m_hat = m"),
    ("AdamW: decay sign flipped", "p = (p - lr * self.weight_decay * p",
     "p = (p + lr * self.weight_decay * p"),
    ("AdamW: first moment written to a copy", "m *= b1", "m = m * b1"),
    ("AdamW: a missing gradient taken as ones", "np.zeros(t.data.size, self.dtype) if",
     "np.ones(t.data.size, self.dtype) if"),
    ("AdamW: scale not applied", "        g *= self.dtype.type(scale)\n", ""),
    ("AdamW: scale applied after the moments",
     "        g *= self.dtype.type(scale)\n"
     "        self.t += 1\n"
     "        b1, b2 = self.betas\n"
     "        m, v = self._m, self._v\n"
     "        p = np.concatenate([t.data.ravel() for t in self.params.values()],\n"
     "                           dtype=self.dtype)\n"
     "        m *= b1\n"
     "        m += (1.0 - b1) * g\n"
     "        v *= b2\n"
     "        v += (1.0 - b2) * (g * g)\n",
     "        self.t += 1\n"
     "        b1, b2 = self.betas\n"
     "        m, v = self._m, self._v\n"
     "        p = np.concatenate([t.data.ravel() for t in self.params.values()],\n"
     "                           dtype=self.dtype)\n"
     "        m *= b1\n"
     "        m += (1.0 - b1) * g\n"
     "        v *= b2\n"
     "        v += (1.0 - b2) * (g * g)\n"
     "        g *= self.dtype.type(scale)\n"),
    ("AdamW: a mixed-dtype set accepted", "if len(dtypes) != 1:", "if not dtypes:"),
    ("AdamW: the update not bound to the parameters",
     "            self.params[k].data = view\n", "            pass\n"),
    ("AdamW: loaded moments replace the views", "store[name][...] = _checked_array(",
     "store[name] = _checked_array("),
    ("clip_gradients: each sum one element short",
     "total_sq = sum(float(np.sum(g.astype(np.float64) ** 2))",
     "total_sq = sum(float(np.sum(g.astype(np.float64).ravel()[1:] ** 2))"),
    ("clip_gradients: a None gradient counted as ones",
     "present = [g for g in grads.values() if g is not None]",
     "present = [np.ones(1) if g is None else g for g in grads.values()]"),
], MODEL: [
    ("Model: window not cast to the model's dtype",
     "Tensor(u.data if isinstance(u, Tensor) else u, dtype=self.dtype)",
     "Tensor(u.data if isinstance(u, Tensor) else u)"),
]}


def run_suite(tree: str) -> bool:
    """True when the suite passes in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run(COMMAND, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode == 0


def check(mutant: tuple | None) -> bool:
    """Copy the repository, apply ``mutant`` (None: none) and run the suite."""
    with tempfile.TemporaryDirectory(prefix="aotlab-mutant-") as tmp:
        tree = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        if mutant is not None:
            target, name, old, new = mutant
            path = os.path.join(tree, target)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(old) != 1:
                raise SystemExit(f"mutant {name!r}: its text occurs "
                                 f"{text.count(old)} times in {target}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(old, new))
        return run_suite(tree)


def main() -> int:
    t0 = time.perf_counter()
    if not check(None):
        print("the unmutated suite fails; no mutant can be judged")
        return 2
    print(f"unmutated suite passes ({time.perf_counter() - t0:.0f} s)")
    mutants = [(target, *m) for target, ms in MUTANTS.items() for m in ms]
    survivors = []
    for mutant in mutants:
        t0 = time.perf_counter()
        passed = check(mutant)
        print(f"{'SURVIVED' if passed else 'killed':8s}  {mutant[1]}  "
              f"({time.perf_counter() - t0:.0f} s)", flush=True)
        if passed:
            survivors.append(mutant[1])
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    for name in survivors:
        print(f"survivor: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
