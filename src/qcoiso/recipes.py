"""Generator recipes for the candidate coideal subalgebras.

A recipe fixes, for one (type, positive root) case, a K-monomial exponent
vector plus an ordered list of named iterated q-bracket expressions over the
E-generators.  Built-in recipes cover the worked families (the special-linear
pattern, the symplectic, even and odd orthogonal patterns, both nontrivial G2
roots) and the E6 tables shipped as package data.  Each classical family is a
list of chains of q-brackets [...[x, E_k1]_p, ..., E_k]_p along simple-root
nodes, built by one helper (`_chain_gens`); the even and odd orthogonal
L1+Lj families share one builder that differs only in the bracket power and in
the start of its (d) group.

A bracket expression is a tree of generators (`Gen`), q-brackets (`QBr`)
and references to named auxiliary expressions (`Ref`).  One fold (`_fold`)
walks it for every use: the quantum value (`eval_bracket_expr`), the classical
limit with plain commutators (`classical_limit_expr`) and the degree.

The K-exponent vector is always beta itself, its coordinates over the simple
roots, which is the unique choice whose semiclassical Cartan element is
proportional to the form-dual of beta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .rootsys import (
    CartanType,
    RootSystem,
    RootSystemError,
    build_root_system,
    parse_root,
    render_simple_form,
)
from .uqalg import NCPoly, UqBorel


class RecipeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Bracket expressions.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gen:
    index: int  # 0-based generator index


@dataclass(frozen=True)
class QBr:
    lhs: "BracketExpr"
    rhs: "BracketExpr"
    power: int


@dataclass(frozen=True)
class Ref:
    name: str


BracketExpr = object  # Gen | QBr | Ref


def _fold(expr, aux, gen, qbr):
    """Fold a bracket expression bottom-up: gen(index) at a generator,
    qbr(lhs value, rhs value, power) at a q-bracket; a reference folds the
    auxiliary it names."""
    if isinstance(expr, Gen):
        return gen(expr.index)
    if isinstance(expr, QBr):
        return qbr(_fold(expr.lhs, aux, gen, qbr), _fold(expr.rhs, aux, gen, qbr), expr.power)
    if isinstance(expr, Ref):
        if not aux or expr.name not in aux:
            raise RecipeError(f"undefined auxiliary {expr.name!r}")
        return _fold(aux[expr.name], aux, gen, qbr)
    raise RecipeError(f"bad expression node {expr!r}")


def eval_bracket_expr(expr, alg: UqBorel, aux=None) -> NCPoly:
    return _fold(expr, aux, alg.gen, alg.q_bracket)


def classical_limit_expr(expr, cb, aux=None) -> dict:
    """The same tree with plain commutators over the classical basis."""
    return _fold(
        expr, aux, lambda i: cb.e(cb.rs.simple_roots[i]), lambda a, b, _: cb.bracket(a, b)
    )


def _expr_degree(expr, aux):
    return _fold(expr, aux, lambda _: 1, lambda a, b, _: a + b)


@dataclass
class GeneratorRecipe:
    cartan_type: CartanType
    beta: tuple
    k_monomial: tuple
    generators: list  # [(name, group, BracketExpr)]
    auxiliaries: dict = field(default_factory=dict)
    power_assignment: str = "explicit"  # or "heuristic"

    def names(self):
        return [name for name, _, _ in self.generators]

    def max_degree(self):
        return max(_expr_degree(expr, self.auxiliaries) for _, _, expr in self.generators)

    def evaluate(self, alg: UqBorel) -> dict:
        """{name: NCPoly} of the E-side generators, in recipe order; all must
        be nonzero."""
        out = {}
        for name, _, expr in self.generators:
            val = eval_bracket_expr(expr, alg, self.auxiliaries)
            if not val:
                raise RecipeError(f"generator {name} evaluates to zero")
            out[name] = val
        return out


# ---------------------------------------------------------------------------
# Built-in recipes.
# ---------------------------------------------------------------------------

def _chain_gens(prefix, group, expr, nodes, power):
    """(prefix+k, group, [...[expr, E_k1]_p, ..., E_k]_p) for each 1-based node k.

    With expr None the chain starts at the bare E_k1.
    """
    out = []
    for k in nodes:
        expr = Gen(k - 1) if expr is None else QBr(expr, Gen(k - 1), power)
        out.append((f"{prefix}{k}", group, expr))
    return out


def builtin_recipe(rs: RootSystem, beta: tuple) -> GeneratorRecipe:
    if not rs.is_root(beta) or not any(c > 0 for c in beta):
        raise RecipeError(f"{render_simple_form(beta)} is not a positive root of {rs.type}")
    if rs.type == CartanType("E", 6):
        return _e6_recipe(rs, beta)
    gens, aux = _family_recipe(rs, beta)
    return GeneratorRecipe(
        cartan_type=rs.type,
        beta=beta,
        k_monomial=beta,
        generators=gens,
        auxiliaries=aux,
    )


def _family_recipe(rs, beta):
    """(generators, auxiliaries) of the hand-written family that covers beta."""
    series, n = rs.type.series, rs.rank
    if series == "G":
        return _g2_recipe(rs, beta)
    if series not in "ABCD":
        raise RecipeError(f"no built-in recipes for type {rs.type}")
    coords = rs.euclid_coords(beta)
    ij = _try_ij_of_difference(coords)
    if series == "A":
        if ij is None:
            raise RecipeError(f"{rs.render_root(beta)} is not of the form Li-Lj")
        return _chain_pair_recipe(*ij, power=1)
    if series == "C":
        if coords[0] != 2 or any(coords[1:]):
            raise RecipeError(
                f"no built-in recipe for {rs.type} beta={rs.render_root(beta)}; "
                "supported: 2L1"
            )
        return _symplectic_recipe(n)
    if ij is not None:
        return _chain_pair_recipe(*ij, power=2 if series == "B" else 1)
    pos = [k + 1 for k, c in enumerate(coords) if c == 1]  # 1-based
    if len(pos) != 2 or pos[0] != 1 or sum(abs(c) for c in coords) != 2:
        raise RecipeError(
            f"no built-in recipe for {rs.type} beta={rs.render_root(beta)}; "
            "supported: L1+Lj and Li-Lj"
        )
    if pos[1] < n:
        return _orthogonal_recipe(series, n, pos[1])
    if series == "D":
        return _even_orthogonal_top_recipe(n)
    return _odd_orthogonal_top_recipe(n)


def _try_ij_of_difference(coords):
    """(i, j), 1-based, when the Euclidean coordinates are Li - Lj with i < j."""
    pos = [k for k, c in enumerate(coords) if c == 1]
    neg = [k for k, c in enumerate(coords) if c == -1]
    if len(pos) == 1 and len(neg) == 1 and pos[0] < neg[0]:
        if all(c in (0, 1, -1) for c in coords):
            return pos[0] + 1, neg[0] + 1
    return None


# Each family returns (generators, auxiliaries) for beta; every generator is
# a chain of q-brackets of the E_k along simple-root nodes (1-based below).

def _chain_pair_recipe(i, j, power):
    """beta = Li - Lj: X_i..X_{j-1} up from E_i, D_{j-1}..D_{i+1} down from E_{j-1}."""
    x = _chain_gens("X", "(a)", None, range(i, j), power)
    return x + _chain_gens("D", "(b)", None, range(j - 1, i, -1), power), {}


def _symplectic_recipe(n):
    """beta = 2L1: X_1..X_{n-1}, X = [X_{n-1}, E_n]_{q^2}, then Y_{n-1}..Y_1 from X."""
    gens = _chain_gens("X", "(a)", None, range(1, n), 1)
    x = QBr(gens[-1][2], Gen(n - 1), 2)
    return gens + [("X", "(b)", x)] + _chain_gens("Y", "(b)", x, range(n - 1, 0, -1), 1), {}


def _even_orthogonal_top_recipe(n):
    """beta = L1 + Ln: the two-chain pattern through the spin node."""
    gens = _chain_gens("X", "(a)", None, range(1, n - 1), 1)
    w = Gen(n - 1)  # the spin node, named W_{n-1}
    gens += [(f"W{n - 1}", "(b)", w)] + _chain_gens("W", "(b)", w, range(n - 2, 0, -1), 1)
    return gens, {}


def _odd_orthogonal_top_recipe(n):
    """beta = L1 + Ln in the odd orthogonal series; long brackets carry q^2."""
    y = QBr(Gen(n - 1), QBr(Gen(n - 1), Gen(n - 2), 2), 0)
    chain = _chain_gens("", "", None, range(1, n), 2)[-1][2]  # E_1 up to E_{n-1}
    gens = _chain_gens("X", "(a)", None, range(1, n - 1), 2) + [
        (f"E{n}", "(b)", Gen(n - 1)),
        (f"B{n}", "(b)", QBr(Gen(n - 1), chain, 2)),
        (f"Y{n - 1}", "(c)", y),
    ]
    return gens + _chain_gens("Y", "(c)", y, range(n - 2, 0, -1), 2), {}


def _orthogonal_recipe(series, n, j):
    """beta = L1 + Lj with 2 <= j < n, the six-group pattern; B brackets carry q^2.

    Only the head of the (d) group depends on the series; both chain it
    down through nodes n-1, ..., j+1.
    """
    p = 2 if series == "B" else 1
    bs = _chain_gens("B", "(b)", None, range(j, n), p)
    if series == "D":
        # the spin-node element [B_{n-2}, E_n]; for j = n-1 the connecting
        # chain is empty and the element degenerates to the bare generator
        spin = QBr(bs[-2][2], Gen(n - 1), p) if j <= n - 2 else Gen(n - 1)
        head = [(f"B{n}", "(d)", spin)]
    else:
        bn = QBr(bs[-1][2], Gen(n - 1), p)
        head = [(f"B{n}", "(d)", bn), (f"Y{n}", "(d)", QBr(bn, Gen(n - 1), 0))]
    ds = head + _chain_gens("Y", "(d)", head[-1][2], range(n - 1, j, -1), p)
    f = QBr(ds[-1][2], QBr(Gen(j - 1), Gen(j - 2), p), p)
    gens = (
        _chain_gens("X", "(a)", None, range(1, j - 1), p)
        + bs
        + [(f"C{name[1:]}", "(c)", QBr(e, Ref("T"), p)) for name, _, e in bs]
        + ds
        + [(f"{name}T", "(e)", QBr(e, Ref("T"), p)) for name, _, e in ds]
        + [(f"Y{j - 1}", "(f)", f)]
        + _chain_gens("Y", "(f)", f, range(j - 2, 0, -1), p)
    )
    return gens, {"T": _chain_gens("", "", None, range(1, j), p)[-1][2]}


def _g2_recipe(rs, beta):
    e1, e2 = Gen(0), Gen(1)
    if beta == (0, 1):
        return [("E2", "(a)", e2)], {}
    if beta == (3, 1):
        x = QBr(QBr(e1, e2, 3), e1, -1)
        return [("E1", "(a)", e1), ("X", "(a)", x), ("Y", "(a)", QBr(x, e1, 1))], {}
    if beta == (3, 2):
        x = QBr(e2, e1, 3)
        y = QBr(x, e1, 1)
        z = QBr(y, e1, -1)
        gens = [("E2", "(a)", e2), ("X", "(a)", x), ("Y", "(a)", y), ("Z", "(a)", z)]
        return gens + [("T", "(a)", QBr(z, e2, 0))], {}
    raise RecipeError(
        f"no built-in recipe for G2 beta={rs.render_root(beta)}; "
        "supported: a2, 3a1+a2, 3a1+2a2"
    )


# ---------------------------------------------------------------------------
# E6 tables (package data).
# ---------------------------------------------------------------------------

def load_e6_recipes(rs: RootSystem):
    """All shipped E6 recipes keyed by root.

    Starred rows are expanded through the diagram flip 1<->6, 3<->5.  Bracket
    powers are assigned by the uniform adjacent-node heuristic (every printed
    bracket joins non-orthogonal weights, so each becomes a q^1 bracket) and
    the recipes are flagged accordingly.
    """
    raw = json.loads(
        resources.files("qcoiso").joinpath("data/e6_beta_tables.json").read_text()
    )
    out = {}
    for i in range(6):
        beta = rs.simple_roots[i]
        out[beta] = GeneratorRecipe(
            cartan_type=rs.type,
            beta=beta,
            k_monomial=beta,
            generators=[(f"E{i + 1}", "(a)", Gen(i))],
            power_assignment="heuristic",
        )
    flip = {1: 6, 6: 1, 3: 5, 5: 3, 2: 2, 4: 4}
    for row in raw["rows"]:
        beta = parse_root(rs, row["root"])
        exprs = [_parse_bracket_text(text) for text in row["generators"]]
        variants = [(beta, exprs)]
        if row.get("star"):
            beta2 = rs.find_root(_flip_decomp(beta, flip))
            flipped = [_fold(e, None, lambda i: Gen(flip[i + 1] - 1), QBr) for e in exprs]
            variants.append((beta2, flipped))
        for b, exprs in variants:
            out[b] = GeneratorRecipe(
                cartan_type=rs.type,
                beta=b,
                k_monomial=b,
                generators=[(f"G{k + 1}", "(a)", e) for k, e in enumerate(exprs)],
                power_assignment="heuristic",
            )
    return out


def _flip_decomp(decomp, flip):
    out = [0] * 6
    for i, c in enumerate(decomp):
        out[flip[i + 1] - 1] = c
    return tuple(out)


def _parse_bracket_text(text):
    """Parse 'E4' or '[X,Y]' nested bracket notation; powers default to 1."""
    text = text.strip()
    if text.startswith("E"):
        return Gen(int(text[1:]) - 1)
    if not (text.startswith("[") and text.endswith("]")):
        raise RecipeError(f"cannot parse bracket text {text!r}")
    inner = text[1:-1]
    depth = 0
    for pos, ch in enumerate(inner):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            return QBr(
                _parse_bracket_text(inner[:pos]),
                _parse_bracket_text(inner[pos + 1:]),
                1,
            )
    raise RecipeError(f"cannot parse bracket text {text!r}")


def _e6_recipe(rs, beta):
    table = load_e6_recipes(rs)
    hit = table.get(beta)
    if hit is None:
        raise RecipeError(
            f"no shipped E6 recipe for beta={rs.render_root(beta)}; "
            f"{len(table)} roots are covered"
        )
    return hit


# ---------------------------------------------------------------------------
# Recipe documents (JSON).
# ---------------------------------------------------------------------------

def serialize_recipe(recipe: GeneratorRecipe) -> dict:
    return {
        "type": recipe.cartan_type.series,
        "rank": recipe.cartan_type.rank,
        "beta": render_simple_form(recipe.beta),
        "k_monomial": list(recipe.k_monomial),
        "power_assignment": recipe.power_assignment,
        "auxiliaries": {
            name: _expr_to_json(e) for name, e in sorted(recipe.auxiliaries.items())
        },
        "generators": [
            {"name": name, "group": group, "expr": _expr_to_json(expr)}
            for name, group, expr in recipe.generators
        ],
    }


def _expr_to_json(expr):
    if isinstance(expr, Gen):
        return {"gen": expr.index + 1}
    if isinstance(expr, QBr):
        return {"qbr": [_expr_to_json(expr.lhs), _expr_to_json(expr.rhs), expr.power]}
    if isinstance(expr, Ref):
        return {"ref": expr.name}
    raise RecipeError(f"bad expression node {expr!r}")


def _is_int(x) -> bool:
    """Whether x is a JSON integer; JSON true and false parse to bool, which
    Python counts as an int."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_recipe(doc: dict) -> GeneratorRecipe:
    if not isinstance(doc, dict):
        raise RecipeError("a recipe document must be a JSON object")
    if not _is_int(doc.get("rank")):
        raise RecipeError("bad type/rank: rank must be an integer")
    try:
        ctype = CartanType(doc["type"], doc["rank"])
    except (KeyError, TypeError, RootSystemError) as exc:
        raise RecipeError(f"bad type/rank: {exc}") from exc
    rs = build_root_system(ctype)
    if not isinstance(doc.get("beta"), str):
        raise RecipeError("bad beta: expected a root literal string")
    try:
        beta = parse_root(rs, doc["beta"])
    except RootSystemError as exc:
        raise RecipeError(f"bad beta: {exc}") from exc
    kmono = doc.get("k_monomial")
    if kmono is None:
        kmono = beta
    if not isinstance(kmono, (list, tuple)) or not all(_is_int(c) for c in kmono):
        raise RecipeError("k_monomial: expected a list of integers")
    kmono = tuple(kmono)
    if len(kmono) != rs.rank:
        raise RecipeError("k_monomial: wrong length")
    # generator products are enumerated down to their target K-exponent,
    # which only terminates when no exponent is negative
    if min(kmono) < 0:
        raise RecipeError("k_monomial: entries must be non-negative")
    auxiliaries = doc.get("auxiliaries") or {}
    if not isinstance(auxiliaries, dict):
        raise RecipeError("auxiliaries: expected an object")
    aux = {}
    for name, e in auxiliaries.items():
        aux[name] = _expr_from_json(e, rs.rank, f"auxiliaries.{name}", aux)
    generators = doc.get("generators") or []
    if not isinstance(generators, list):
        raise RecipeError("generators: expected a list")
    gens = []
    for idx, g in enumerate(generators):
        path = f"generators[{idx}]"
        if not isinstance(g, dict):
            raise RecipeError(f"{path}: expected an object")
        if "name" not in g or "expr" not in g:
            raise RecipeError(f"{path}: missing name or expr")
        name = str(g["name"])
        # verification labels the K-monomial "K", the empty product "1" and
        # joins the factors of a product with "*", which an empty name would
        # leave at the ends of a label
        if name in ("", "K", "1") or "*" in name:
            raise RecipeError(f"{path}.name: {name!r} collides with a product label")
        if any(name == other for other, _, _ in gens):
            raise RecipeError(f"{path}.name: duplicate generator name {name!r}")
        expr = _expr_from_json(g["expr"], rs.rank, f"{path}.expr", aux)
        gens.append((name, str(g.get("group", "")), expr))
    if not gens:
        raise RecipeError("recipe has no generators")
    recipe = GeneratorRecipe(
        cartan_type=ctype,
        beta=beta,
        k_monomial=kmono,
        generators=gens,
        auxiliaries=aux,
        power_assignment=str(doc.get("power_assignment", "explicit")),
    )
    # raises when a generator evaluates to zero
    recipe.evaluate(UqBorel(rs, max_degree=max(recipe.max_degree(), 1)))
    return recipe


def _expr_from_json(e, rank, path, aux):
    if not isinstance(e, dict):
        raise RecipeError(f"{path}: expected an object")
    if "gen" in e:
        idx = e["gen"]
        if not _is_int(idx) or not 1 <= idx <= rank:
            raise RecipeError(f"{path}.gen: index {idx!r} out of range 1..{rank}")
        return Gen(idx - 1)
    if "qbr" in e:
        parts = e["qbr"]
        if not isinstance(parts, list) or len(parts) != 3:
            raise RecipeError(f"{path}.qbr: expected [lhs, rhs, power]")
        if not _is_int(parts[2]):
            raise RecipeError(f"{path}.qbr: power must be an integer")
        return QBr(
            _expr_from_json(parts[0], rank, f"{path}.qbr[0]", aux),
            _expr_from_json(parts[1], rank, f"{path}.qbr[1]", aux),
            parts[2],
        )
    if "ref" in e:
        name = e["ref"]
        if not isinstance(name, str) or name not in aux:
            raise RecipeError(f"{path}.ref: unknown auxiliary {name!r}")
        return Ref(name)
    raise RecipeError(f"{path}: expected gen, qbr or ref")
