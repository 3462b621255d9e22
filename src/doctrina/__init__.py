"""Finite first-order Boolean doctrines, the contexts sequent calculus, and
quantifier-alternation stratification, with a decidable word-language theory
as the worked example."""

from .lang import (
    App,
    Context,
    CtxMorphism,
    LangError,
    PredicateFamily,
    Signature,
    Term,
    Var,
    canonical_context,
    compose_ctx,
    identity_morphism,
    pairing,
    product_ctx,
    substitute_term,
)
from .formula import (
    And,
    Bot,
    Eq,
    Exists,
    Forall,
    Formula,
    FormulaInContext,
    Imp,
    Not,
    Or,
    Pred,
    Top,
    alpha_eq,
    free_vars,
    qa_depth,
    substitute_formula,
    to_dnf,
)
from .calculus import (
    Budget,
    ProofTree,
    Rule,
    Sequent,
    check_proof,
    prove_bounded,
)
from .boolalg import BAHom, BoolAlg
from .category import FPCategory, Functor, chain_category, finset_category, terminal_category
from .doctrine import (
    Doctrine,
    DoctrineMorphism,
    change_of_base,
    derive_exists,
    embedding_morphism,
    find_fibered_equalities,
    forced_universal,
    hbx_doctrine,
    quotient_by_filter,
    subset_doctrine,
    verify_boolean_doctrine,
    verify_elementary,
    verify_first_order,
    verify_morphism,
)
from .stratify import StratifiedSequence, colimit, stratify, verify_one_step, verify_qff
from .semantics import FiniteStructure, countermodel_search, eval_in_structure
from .syntactic import (
    BoundedOracle,
    DoctrineTarget,
    Proved,
    Refuted,
    Theory,
    TruthTableOracle,
    Unknown,
    completion_leq,
    interpret,
    is_quantifier_free_modulo,
    lt_leq,
    qa_depth_modulo,
    sequent_valid,
    universal_consequences,
)
from .prefix import (
    PrefixAtom,
    PrefixOracle,
    WordLanguageModel,
    axiom_alpha,
    does_not_generate_demo,
    intersection_experiment,
    p0n_membership,
    prefix_entails,
    prefix_theory,
    qf_entails_modT,
    verify_T_axioms,
    word_countermodel,
)

__version__ = "0.1.0"
