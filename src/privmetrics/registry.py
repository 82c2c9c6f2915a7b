"""Machine-readable catalog of privacy metrics plus the selection advisor.

Every descriptor records the metric's output category, value range, whether
high or low values mean high privacy, the primary data sources it protects,
and the inputs needed to compute it. Three metrics that cannot be checked in
a finite-mechanism model ship as descriptors only (``implemented=False``).

The registry is immutable after import; concurrent reads are safe.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Mapping, Sequence

from .core import _boolean, _fields, _list, _string
from .errors import ParamError, SchemaError, UnknownMetricError
from .ranges import enum_range, interval, per_parameter

CATEGORIES = (
    "uncertainty",
    "information-gain",
    "similarity",
    "indistinguishability",
    "success",
    "error",
    "time",
    "accuracy",
)

DATA_SOURCES = ("published", "observable", "repurposed", "other")

INPUT_KINDS = ("estimate", "resources", "truth", "prior", "parameters")

# Marker caveat for metrics computed from data properties alone; the advisor
# warns about these when an adversary model is required.
NO_ADVERSARY_CAVEAT = (
    "computed from data properties alone; an adversary with relevant prior "
    "knowledge can do better than the reported level"
)

_SOURCE_CODES = {"pub": "published", "obs": "observable", "rep": "repurposed", "oth": "other"}
_INPUT_CODES = {
    "est": "estimate",
    "res": "resources",
    "truth": "truth",
    "prior": "prior",
    "par": "parameters",
}


@dataclass(frozen=True)
class MetricDescriptor:
    id: str
    name: str
    category: str
    value_range: dict
    direction: str | dict
    data_sources: frozenset[str]
    inputs: frozenset[str]
    optional_inputs: frozenset[str]
    unit: str
    summary: str
    caveats: tuple[str, ...] = ()
    implemented: bool = True

    @property
    def op_ref(self) -> str | None:
        """The id of an implemented metric's operation in ``compute``, else None."""
        return self.id if self.implemented else None

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise SchemaError(f"unknown category {self.category!r}")
        if not self.data_sources <= set(DATA_SOURCES):
            raise SchemaError(f"bad data sources for {self.id}")
        if not (self.inputs | self.optional_inputs) <= set(INPUT_KINDS):
            raise SchemaError(f"bad inputs for {self.id}")

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["data_sources"] = sorted(self.data_sources)
        d["inputs"] = sorted(self.inputs)
        d["optional_inputs"] = sorted(self.optional_inputs)
        d["caveats"] = list(self.caveats)
        d["op_ref"] = self.op_ref
        return d


def _m(
    metric_id: str,
    name: str,
    category: str,
    value_range: dict,
    direction,
    sources: str,
    inputs: str,
    unit: str,
    summary: str,
    optional: str = "",
    caveats: Sequence[str] = (),
    implemented: bool = True,
) -> MetricDescriptor:
    return MetricDescriptor(
        id=metric_id,
        name=name,
        category=category,
        value_range=value_range,
        direction=direction,
        data_sources=frozenset(_SOURCE_CODES[s] for s in sources.split(",") if s),
        inputs=frozenset(_INPUT_CODES[s] for s in inputs.split(",") if s),
        optional_inputs=frozenset(_INPUT_CODES[s] for s in optional.split(",") if s),
        unit=unit,
        summary=summary,
        caveats=tuple(caveats),
        implemented=implemented,
    )


_UNBOUNDED = interval(0, None)

DESCRIPTORS: tuple[MetricDescriptor, ...] = (
    # ------------------------------------------------------------------
    # Uncertainty
    _m(
        "anonymity_set_size",
        "Anonymity Set Size",
        "uncertainty",
        _UNBOUNDED,
        "H",
        "obs",
        "est",
        "count",
        "Number of candidates who could plausibly be the target.",
        caveats=(
            "depends only on the candidate count, ignoring prior knowledge and "
            "how likely each member is to be the target",
        ),
    ),
    _m(
        "asymmetric_entropy",
        "Asymmetric Entropy",
        "uncertainty",
        interval(0, 1),
        "H",
        "obs,pub",
        "est,prior",
        "dimensionless",
        "Uncertainty with per-outcome peaks at prior reference points instead of uniformity.",
        caveats=(
            "declared range is [0,1] but the per-outcome terms are summed, so "
            "the raw value can exceed 1; reported unnormalized with an "
            "out-of-range flag",
        ),
    ),
    _m(
        "conditional_entropy",
        "Conditional entropy",
        "uncertainty",
        _UNBOUNDED,
        "H",
        "obs,pub",
        "est,prior",
        "bits",
        "Remaining uncertainty about the hidden variable once the observation is known.",
        caveats=(
            "distinct from the entropy of a conditional distribution; it averages "
            "over the observed variable",
        ),
    ),
    _m(
        "conditional_privacy",
        "Conditional privacy",
        "uncertainty",
        interval(1, None),
        "H",
        "obs,pub",
        "est,prior",
        "count",
        "Effective anonymity-set size left after an observation: 2 to the conditional entropy.",
    ),
    _m(
        "cross_entropy",
        "Cross-entropy",
        "uncertainty",
        _UNBOUNDED,
        "H",
        "pub",
        "est,truth",
        "bits",
        "Code length for the true distribution under the adversary's model distribution.",
    ),
    _m(
        "cumulative_entropy",
        "Cumulative entropy",
        "uncertainty",
        _UNBOUNDED,
        "H",
        "obs",
        "est",
        "bits",
        "Total uncertainty gathered across a route through independent mix zones.",
    ),
    _m(
        "degree_of_unlinkability",
        "Degree of unlinkability",
        "uncertainty",
        _UNBOUNDED,
        "H",
        "obs,pub",
        "est",
        "bits",
        "Uncertainty over which grouping of items into related sets is the true one.",
        optional="prior",
        caveats=(
            "candidate partitions and their probabilities are supplied explicitly; "
            "the space of all set partitions grows too fast to enumerate",
        ),
    ),
    _m(
        "entropy",
        "Entropy",
        "uncertainty",
        interval(0, "H0(X)"),
        "H",
        "obs,pub",
        "est",
        "bits",
        "Uncertainty in predicting the target from the adversary's candidate probabilities.",
        caveats=(
            "strongly influenced by outliers: many negligible candidates keep the "
            "value high even when one candidate dominates",
            "different candidate sets can score identically, e.g. a uniform set of "
            "20 and a 101-candidate set whose top candidate holds half the mass",
            "says nothing about the adversary's correctness or required resources",
        ),
    ),
    _m(
        "entropy_bayes",
        "Entropy + Bayes",
        "uncertainty",
        _UNBOUNDED,
        "H",
        "obs",
        "est,prior",
        "bits",
        "Posterior uncertainty tracked over time with predict-then-correct belief updates.",
    ),
    _m(
        "genomic_privacy",
        "Genomic Privacy",
        "uncertainty",
        _UNBOUNDED,
        "H",
        "pub",
        "est,par",
        "bits",
        "Severity-weighted surprisal of a person's genomic variations.",
    ),
    _m(
        "inherent_privacy",
        "Inherent privacy",
        "uncertainty",
        interval(1, "|X|"),
        "H",
        "obs,pub",
        "est",
        "count",
        "Entropy restated as an effective anonymity-set size: 2 to the entropy.",
    ),
    _m(
        "max_entropy",
        "Max-entropy (Hartley)",
        "uncertainty",
        _UNBOUNDED,
        "H",
        "obs,pub",
        "est",
        "bits",
        "Best case: uncertainty if every candidate were equally likely.",
    ),
    _m(
        "min_entropy",
        "Min-entropy",
        "uncertainty",
        _UNBOUNDED,
        "L",
        "obs,pub",
        "est",
        "bits",
        "Worst case: uncertainty determined by the single most likely candidate.",
    ),
    _m(
        "normalized_conditional_entropy",
        "Normalized conditional entropy",
        "uncertainty",
        interval(0, 1),
        "H",
        "obs,pub",
        "est,prior",
        "ratio",
        "Conditional entropy as a fraction of the unconditional entropy.",
    ),
    _m(
        "normalized_entropy",
        "Normalized entropy",
        "uncertainty",
        interval(0, 1),
        "H",
        "obs,pub",
        "est",
        "ratio",
        "Entropy as a fraction of its maximum; the degree of anonymity.",
    ),
    _m(
        "protection_level",
        "Protection Level",
        "uncertainty",
        _UNBOUNDED,
        "H",
        "obs",
        "est,par",
        "ratio",
        "Average popularity of visited regions relative to a user-chosen reference region.",
    ),
    _m(
        "quantile_entropy",
        "Quantiles on entropy",
        "uncertainty",
        interval(0, "H0(X)"),
        "H",
        "obs,pub",
        "est,par",
        "bits",
        "Entropy of the candidates at or above a probability threshold.",
        caveats=(
            "threshold read per outcome (p(x) >= c); the retained subset is "
            "renormalized so the value is a true entropy",
        ),
    ),
    _m(
        "renyi_entropy",
        "Renyi entropy",
        "uncertainty",
        _UNBOUNDED,
        "H",
        "obs,pub",
        "est,par",
        "bits",
        "Order-parameterized family of uncertainties spanning best to worst case.",
    ),
    _m(
        "user_centric_privacy",
        "User-centric privacy",
        "uncertainty",
        interval(0, "H0(U)"),
        "H",
        "obs",
        "est,par",
        "bits",
        "Entropy at the last protection event, decaying linearly at a user-chosen rate.",
    ),
    # ------------------------------------------------------------------
    # Information gain or loss
    _m(
        "leaked_information",
        "Amount of leaked information",
        "information-gain",
        _UNBOUNDED,
        "L",
        "pub,oth",
        "truth",
        "count",
        "Number of distinct information items disclosed by the system.",
        caveats=("counts items without weighting their sensitivity",),
    ),
    _m(
        "conditional_mutual_information",
        "Conditional Mutual Information",
        "information-gain",
        _UNBOUNDED,
        "L",
        "obs,pub",
        "est,truth,prior",
        "bits",
        "Information the observation carries about the hidden value beyond prior knowledge.",
    ),
    _m(
        "conditional_privacy_loss",
        "Conditional privacy loss",
        "information-gain",
        interval(0, 1),
        "L",
        "obs,pub",
        "est,truth",
        "ratio",
        "Fraction of the hidden variable's privacy lost by revealing the observation.",
    ),
    _m(
        "belief_increase",
        "Increase in adversary's belief",
        "information-gain",
        enum_range("true", "false"),
        "L",
        "obs,pub",
        "est,prior,par",
        "boolean",
        "Whether the posterior belief exceeds the prior by more than a tolerance.",
    ),
    _m(
        "information_surprisal",
        "Information Surprisal",
        "information-gain",
        interval(0, None, lo_open=True),
        "L",
        "pub",
        "est,truth",
        "bits",
        "Self-information carried by one concrete outcome.",
    ),
    _m(
        "max_information_leakage",
        "Maximum information leakage",
        "information-gain",
        _UNBOUNDED,
        "L",
        "obs,pub",
        "est",
        "bits",
        "Largest uncertainty drop any single observation can cause.",
    ),
    _m(
        "mutual_information",
        "Mutual information",
        "information-gain",
        _UNBOUNDED,
        "L",
        "obs,pub",
        "est,truth",
        "bits",
        "Information shared between the hidden value and the observation.",
    ),
    _m(
        "normalized_mutual_information",
        "Normalized mutual information",
        "information-gain",
        interval(0, 1),
        "H",
        "obs,pub",
        "est,truth",
        "ratio",
        "One minus the leaked fraction of the hidden variable's entropy.",
    ),
    _m(
        "pearson_correlation",
        "Pearson's correlation coefficient",
        "information-gain",
        interval(0, 1),
        "L",
        "obs,rep",
        "truth",
        "ratio",
        "Magnitude of linear dependence between original and protected series.",
        caveats=(
            "declared range is [0,1] while the raw coefficient spans [-1,1]; "
            "the magnitude is reported and the signed value kept as a secondary field",
        ),
    ),
    _m(
        "privacy_score",
        "Privacy Score",
        "information-gain",
        _UNBOUNDED,
        "L",
        "pub",
        "par",
        "dimensionless",
        "Sensitivity-weighted visibility of a profile's information items.",
    ),
    _m(
        "feature_reduction",
        "Reduction in observable features",
        "information-gain",
        interval(0, 1),
        "L",
        "obs,rep",
        "truth",
        "ratio",
        "Fraction of non-zero load transitions still observable after protection.",
        caveats=(
            "fewer observable features does not imply the hidden information "
            "cannot be inferred",
        ),
    ),
    _m(
        "relative_entropy",
        "Relative entropy",
        "information-gain",
        _UNBOUNDED,
        "H",
        "obs,pub",
        "est,truth",
        "bits",
        "Divergence of the adversary's estimate from the true distribution.",
        caveats=(
            "declared direction is high-is-private; the same quantity is also "
            "read as information revealed to the adversary",
        ),
    ),
    _m(
        "loss_of_anonymity",
        "(Relative) Loss of anonymity",
        "information-gain",
        interval(0, "H(X)"),
        "L",
        "obs",
        "est,truth",
        "bits",
        "Leakage under the least private input distribution: the channel capacity.",
        optional="prior",
        caveats=(
            "the conditioned variant maximizes one shared input distribution "
            "across all values of the revealed side information",
        ),
    ),
    _m(
        "system_anonymity_level",
        "System anonymity level",
        "information-gain",
        _UNBOUNDED,
        "H",
        "obs",
        "est,truth",
        "ratio",
        "Scaled entropy over equivalence classes of feasible sender-receiver matchings.",
        caveats=(
            "the class structure over matchings is caller-supplied; by default "
            "every matching is its own class (finest, most conservative partition)",
        ),
    ),
    # ------------------------------------------------------------------
    # Similarity or diversity
    _m(
        "alpha_k_anonymity",
        "(alpha,k)-anonymity",
        "similarity",
        per_parameter(k=_UNBOUNDED, alpha=interval(0, 1)),
        {"k": "H", "alpha": "L"},
        "pub",
        "par",
        "dimensionless",
        "k-anonymity plus a cap on any single sensitive value's in-class frequency.",
        caveats=(
            "attribute linkage can remain possible below the frequency bound",
            NO_ADVERSARY_CAVEAT,
        ),
    ),
    _m(
        "ct_isolation",
        "(c,t)-isolation",
        "similarity",
        _UNBOUNDED,
        "H",
        "pub",
        "est,truth,par",
        "count",
        "How many database points a ball around the adversary's guess captures.",
    ),
    _m(
        "cluster_similarity",
        "Cluster similarity",
        "similarity",
        interval(0, 1),
        "L",
        "obs,rep",
        "truth",
        "ratio",
        "Best-bijection agreement between clusterings of original and protected series.",
        caveats=(NO_ADVERSARY_CAVEAT,),
    ),
    _m(
        "r_squared",
        "Coefficient of determination R^2",
        "similarity",
        interval(0, 1),
        "L",
        "obs,rep",
        "truth",
        "ratio",
        "Share of protected-series variability a straight-line fit explains.",
        caveats=(NO_ADVERSARY_CAVEAT,),
    ),
    _m(
        "em_anonymity",
        "(epsilon,m)-anonymity",
        "similarity",
        per_parameter(epsilon=interval(0, 1), m=interval(1, None)),
        {"epsilon": "H", "m": "H"},
        "pub",
        "par",
        "dimensionless",
        "Bound on the in-class fraction of sensitive values similar to any value.",
        caveats=(NO_ADVERSARY_CAVEAT,),
    ),
    _m(
        "haplotype_snp_test",
        "Haplotype-SNP-test",
        "similarity",
        enum_range("true", "false"),
        "H",
        "pub",
        "par",
        "boolean",
        "Participant-count condition for safely publishing genomic aggregates or statistics.",
        caveats=(
            "log base is configurable (base 2 by default)",
            NO_ADVERSARY_CAVEAT,
        ),
    ),
    _m(
        "historical_k_anonymity",
        "Historical k-Anonymity",
        "similarity",
        _UNBOUNDED,
        "H",
        "obs",
        "truth,par",
        "count",
        "Number of user location histories consistent with a request sequence.",
        caveats=(NO_ADVERSARY_CAVEAT,),
    ),
    _m(
        "k_anonymity",
        "k-anonymity",
        "similarity",
        interval(1, "|D|"),
        "H",
        "pub",
        "par",
        "count",
        "Minimum number of rows sharing any full quasi-identifier combination.",
        caveats=(
            "fails to protect against attribute disclosure; weak for "
            "high-dimensional data, multiple releases of the same data set, and "
            "semantically close sensitive values",
            NO_ADVERSARY_CAVEAT,
        ),
    ),
    _m(
        "ke_anonymity",
        "(k,e)-anonymity",
        "similarity",
        _UNBOUNDED,
        "H",
        "pub",
        "par",
        "dimensionless",
        "k-anonymity for numeric attributes plus a floor on in-class value ranges.",
        caveats=(
            "ignores how values spread inside the range, enabling proximity attacks",
            NO_ADVERSARY_CAVEAT,
        ),
    ),
    _m(
        "l_diversity",
        "l-diversity",
        "similarity",
        _UNBOUNDED,
        "H",
        "pub",
        "par",
        "dimensionless",
        "Required diversity of sensitive values inside every equivalence class.",
        caveats=(
            "insufficient under skewed sensitive distributions, semantically "
            "similar values, multiple releases, or numeric attributes",
            NO_ADVERSARY_CAVEAT,
        ),
    ),
    _m(
        "m_invariance",
        "m-invariance",
        "similarity",
        _UNBOUNDED,
        "H",
        "pub",
        "par",
        "count",
        "Cross-release stability of each owner's set of class sensitive values.",
        caveats=(NO_ADVERSARY_CAVEAT,),
    ),
    _m(
        "multirelational_k_anonymity",
        "Multirelational k-anonymity",
        "similarity",
        _UNBOUNDED,
        "H",
        "pub",
        "truth,par",
        "count",
        "Owner-level k over the join of a person table with its relations.",
        caveats=(
            "owner-level count; the literal row-level condition is exposed as a "
            "secondary boolean",
            NO_ADVERSARY_CAVEAT,
        ),
    ),
    _m(
        "t_closeness",
        "t-closeness",
        "similarity",
        _UNBOUNDED,
        "L",
        "pub",
        "truth,par",
        "ratio",
        "Worst Earth Mover's Distance between class and table sensitive distributions.",
        caveats=(
            "needs an Earth Mover's Distance ground metric: equal distance for "
            "categorical attributes, ordered cumulative form for numeric ones",
            NO_ADVERSARY_CAVEAT,
        ),
    ),
    _m(
        "normalized_variance",
        "Normalized variance",
        "similarity",
        interval(0, 1),
        "H",
        "pub",
        "truth",
        "ratio",
        "Variance of the original-minus-perturbed gap relative to the original.",
        caveats=(
            "declared range is [0,1] but the ratio is unbounded above; the "
            "raw value is reported with an out-of-range flag",
            NO_ADVERSARY_CAVEAT,
        ),
    ),
    _m(
        "xy_privacy",
        "(X,Y)-privacy",
        "similarity",
        interval(0, 1, lo_open=True),
        "L",
        "pub",
        "truth,par",
        "ratio",
        "Worst confidence for inferring a sensitive column group from a linking group.",
        caveats=(
            "implemented as the literal worst case over value pairs",
            NO_ADVERSARY_CAVEAT,
        ),
    ),
    # ------------------------------------------------------------------
    # Time
    _m(
        "max_tracking_time",
        "Maximum tracking time",
        "time",
        _UNBOUNDED,
        "L",
        "obs",
        "est",
        "seconds",
        "Total time the target's anonymity set stays at exactly one member.",
        caveats=(
            "overestimates privacy: an adversary may keep tracking with a small "
            "but non-singleton candidate set",
        ),
    ),
    _m(
        "time_to_confusion",
        "Mean time to confusion",
        "time",
        _UNBOUNDED,
        "L",
        "obs",
        "est,par",
        "seconds",
        "Durations of the runs where tracking entropy stays below a threshold.",
        caveats=("mean-of-runs and cumulative readings are both reported",),
    ),
    _m(
        "time_until_success",
        "Time until adversary's success",
        "time",
        _UNBOUNDED,
        "H",
        "obs",
        "est,truth",
        "count",
        "Expected batch-mix rounds until the adversary links all of a sender's recipients.",
        optional="par",
    ),
    # ------------------------------------------------------------------
    # Indistinguishability
    _m(
        "approximate_differential_privacy",
        "Approximate differential privacy",
        "indistinguishability",
        per_parameter(epsilon=_UNBOUNDED, delta=_UNBOUNDED),
        {"epsilon": "L", "delta": "L"},
        "pub",
        "truth,par",
        "probability",
        "Differential privacy relaxed by an additive slack on the ratio bound.",
    ),
    _m(
        "computational_differential_privacy",
        "Computational differential privacy",
        "indistinguishability",
        _UNBOUNDED,
        "L",
        "pub",
        "est,res,truth,par",
        "dimensionless",
        "Differential privacy against computationally bounded adversaries.",
        caveats=(
            "asymptotic definition over bounded adversaries; admits no finite "
            "check, so this is a descriptor without an implementation",
        ),
        implemented=False,
    ),
    _m(
        "cryptographic_game",
        "Cryptographic game",
        "indistinguishability",
        enum_range("true", "false"),
        "H",
        "obs",
        "est,truth,par",
        "boolean",
        "Whether a challenge-response adversary's edge over coin flipping stays negligible.",
    ),
    _m(
        "differential_privacy",
        "Differential privacy",
        "indistinguishability",
        _UNBOUNDED,
        "L",
        "pub",
        "truth,par",
        "dimensionless",
        "Worst log-ratio of output probabilities across neighboring data sets.",
        caveats=(
            "parameter choice is hard in practice (reported values span 0.01 to 100)",
            "guarantees degrade under correlated data and compose additively over queries",
        ),
    ),
    _m(
        "distributed_differential_privacy",
        "Distributed differential privacy",
        "indistinguishability",
        per_parameter(epsilon=_UNBOUNDED, delta=_UNBOUNDED),
        {"epsilon": "L", "delta": "L"},
        "pub,rep",
        "truth,par",
        "probability",
        "Approximate differential privacy using only honest participants' randomness.",
        caveats=(
            "conditioning on compromised participants' randomness is outside the "
            "finite-mechanism model, so this is a descriptor without an implementation",
        ),
        implemented=False,
    ),
    _m(
        "distributional_privacy",
        "Distributional privacy",
        "indistinguishability",
        _UNBOUNDED,
        "L",
        "pub,rep",
        "truth,par",
        "boolean",
        "Indistinguishability of the parameters generating the data, not the data itself.",
        caveats=("checks a single observed response sequence",),
    ),
    _m(
        "geo_indistinguishability",
        "Geo-indistinguishability",
        "indistinguishability",
        _UNBOUNDED,
        "L",
        "obs",
        "truth,par",
        "dimensionless",
        "Output similarity bound scaling with the distance between true locations.",
        caveats=(
            "formalized as the worst output log-ratio per unit of input distance",
        ),
    ),
    _m(
        "information_privacy",
        "Information privacy",
        "indistinguishability",
        enum_range("true", "false"),
        "H",
        "obs",
        "est,par",
        "boolean",
        "Posterior-to-prior ratios for sensitive values stay within an exponential band.",
        caveats=(
            "holding at eps also bounds maximum information leakage and implies "
            "differential privacy at twice the parameter",
        ),
    ),
    _m(
        "observational_equivalence",
        "Observational equivalence",
        "indistinguishability",
        enum_range("true", "false"),
        "H",
        "obs",
        "est,truth",
        "boolean",
        "Formal equivalence of the observable behavior of two protocol situations.",
        caveats=(
            "needs a process-calculus verifier, so this is a descriptor without "
            "an implementation",
        ),
        implemented=False,
    ),
    _m(
        "unconditional_privacy",
        "Unconditional / computational privacy",
        "indistinguishability",
        enum_range("true", "false"),
        "L",
        "obs",
        "est,truth,par",
        "boolean",
        "Game variant demanding zero adversary advantage (or negligible, respectively).",
        caveats=(
            "declared direction marks low as private; the zero-advantage check is "
            "evaluated on the observed transcript",
        ),
    ),
    # ------------------------------------------------------------------
    # Adversary's success probability
    _m(
        "success_rate",
        "Adversary's success rate",
        "success",
        interval(0, 1),
        "L",
        "obs",
        "est,truth",
        "probability",
        "Fraction of attempts in which the adversary reaches their goal.",
        optional="par",
        caveats=(
            "includes the record-linkage reading: matches above a similarity "
            "threshold occurring at a required rate",
        ),
    ),
    _m(
        "dg_privacy",
        "(d,gamma)-privacy",
        "success",
        interval(0, 1),
        "L",
        "obs",
        "est,prior,par",
        "boolean",
        "Bounded-prior breach check tying the posterior ratio to d over gamma.",
        caveats=(
            "the ratio condition lower-bounds the posterior/prior ratio, which "
            "reads counterintuitively for a guarantee; implemented literally",
        ),
    ),
    _m(
        "degrees_of_anonymity",
        "Degrees of Anonymity",
        "success",
        interval(0, 1),
        "L",
        "obs",
        "est,truth,par",
        "enum",
        "Qualitative exposure level of a target, from absolute privacy to provably exposed.",
        caveats=(
            "ignores the anonymity-set cardinality, so it does not reflect the "
            "adversary's real success probability",
            "declared range is numeric [0,1] though the verdict is one of six "
            "ordered degrees",
        ),
    ),
    _m(
        "delta_presence",
        "delta-presence",
        "success",
        interval(0, 1),
        "L",
        "pub",
        "est,prior,par",
        "probability",
        "Bounds on inferring that a known individual is present in the source data.",
        caveats=(
            "assumes the publisher and the adversary share the same external data",
        ),
    ),
    _m(
        "hiding_property",
        "Hiding property",
        "success",
        interval(0, 1),
        "L",
        "obs",
        "est,par",
        "probability",
        "Whether every message-to-user assignment probability stays under a threshold.",
    ),
    _m(
        "privacy_breach_level",
        "Privacy breach level",
        "success",
        interval(0, 1),
        "L",
        "obs",
        "est,prior,par",
        "probability",
        "Breach when any posterior property probability reaches the threshold.",
    ),
    _m(
        "path_compromise",
        "Probability of path compromise",
        "success",
        interval(0, 1),
        "L",
        "obs",
        "est,res,truth",
        "probability",
        "Chance that every relay on a uniformly chosen communication path is compromised.",
        caveats=(
            "uniform independent relay selection; no guard-node persistence or "
            "bandwidth weighting",
        ),
    ),
    # ------------------------------------------------------------------
    # Error
    _m(
        "expected_estimation_error",
        "Adversary's expected estimation error",
        "error",
        interval(0, 1),
        "L",
        "obs",
        "est,truth",
        "dimensionless",
        "Posterior-weighted ground distance between the estimate and the true outcome.",
        caveats=(
            "often grouped with success-probability metrics; with the zero-one "
            "ground metric it equals the probability of error, matching the "
            "declared [0,1] range",
        ),
    ),
    _m(
        "expectation_of_distance_error",
        "Expectation of distance error",
        "error",
        _UNBOUNDED,
        "H",
        "obs",
        "est,truth",
        "dimensionless",
        "Hypothesis-weighted distance error averaged over users and timesteps.",
    ),
    _m(
        "mean_squared_error",
        "Mean Squared Error",
        "error",
        _UNBOUNDED,
        "H",
        "obs",
        "est,truth",
        "dimensionless",
        "Mean squared distance between the adversary's observations and the truth.",
    ),
    _m(
        "pct_incorrectly_classified",
        "Percentage incorrectly classified",
        "error",
        interval(0, 1),
        "H",
        "obs,rep",
        "est,truth",
        "ratio",
        "Share of users or events the adversary classified wrongly.",
    ),
    _m(
        "health_privacy",
        "Health Privacy",
        "error",
        _UNBOUNDED,
        "H",
        "pub",
        "est,par",
        "dimensionless",
        "Contribution-weighted mean of a per-variation base privacy metric for one disease.",
        caveats=(
            "inherits its effective range and direction from the chosen base "
            "metric; the declared values cover the common normalized bases",
        ),
    ),
    # ------------------------------------------------------------------
    # Accuracy / precision
    _m(
        "accuracy_of_obfuscated_region",
        "Accuracy of obfuscated region",
        "accuracy",
        interval(0, 1),
        "L",
        "obs",
        "par",
        "ratio",
        "Squared ratio of achievable sensing accuracy to the user-required minimum.",
    ),
    _m(
        "confidence_interval_width",
        "Confidence interval width",
        "accuracy",
        _UNBOUNDED,
        "H",
        "pub,obs",
        "est,par",
        "dimensionless",
        "Width of the narrowest interval holding the requested share of estimate mass.",
        caveats=(
            "publishing the width may itself help reconstruct the original distribution",
            "the narrowest (highest-density) contiguous interval is used, "
            "leftmost on ties",
        ),
    ),
    _m(
        "coverage_of_sensitive_region",
        "Coverage of sensitive region",
        "accuracy",
        interval(0, 1),
        "L",
        "obs",
        "est,par",
        "ratio",
        "Share of the adversary's uncertainty region lying inside the sensitive region.",
    ),
    _m(
        "uncertainty_region_size",
        "Size of uncertainty region",
        "accuracy",
        _UNBOUNDED,
        "H",
        "obs",
        "est",
        "dimensionless",
        "Area to which the adversary can narrow down the target's position.",
    ),
    _m(
        "event_unobservability",
        "Statistically strong event unobservability",
        "accuracy",
        _UNBOUNDED,
        "L",
        "obs",
        "est,par",
        "dimensionless",
        "Whether message-timing distributions match in CDF area and parameter.",
        caveats=("only applies to single-parameter distributions",),
    ),
    _m(
        "tp_privacy_violation",
        "(t,p) privacy violation",
        "accuracy",
        interval(0, 1),
        "L",
        "pub",
        "est,truth,prior,par",
        "boolean",
        "Whether side information lets a classifier beat the baseline Bayes error by p.",
    ),
)

_BY_ID = {d.id: d for d in DESCRIPTORS}
if len(_BY_ID) != len(DESCRIPTORS):
    raise SchemaError("duplicate metric ids in the registry")


def all_ids() -> tuple[str, ...]:
    return tuple(sorted(_BY_ID))


def lookup(metric_id: str) -> MetricDescriptor:
    """Fetch one descriptor; unknown ids raise."""
    try:
        return _BY_ID[metric_id]
    except KeyError:
        raise UnknownMetricError(f"no metric {metric_id!r} in the catalog")


def export_registry() -> str:
    """Deterministic JSON dump of every descriptor, sorted by id."""
    payload = [lookup(i).to_json_dict() for i in all_ids()]
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Selection advisor

ADVISOR_QUESTIONS: tuple[tuple[str, str], ...] = (
    (
        "q1",
        "Which aspects of privacy should be quantified, and are provable "
        "guarantees required (guarantees narrow the choice to the "
        "indistinguishability category)?",
    ),
    (
        "q2",
        "What kind of adversary must be protected against, and how is the "
        "adversary's knowledge incorporated?",
    ),
    ("q3", "Which data sources need protecting: published, observable, repurposed, or other?"),
    (
        "q4",
        "Which input kinds are available to compute metrics: the adversary's "
        "estimate, their resources, the true outcome, prior knowledge, parameters?",
    ),
    ("q5", "Who is the audience, and which presentations will they understand?"),
    ("q6", "Which metrics does related work use, and would they fit here?"),
    ("q7", "Do any candidate metrics have known flaws, and can that be checked?"),
    ("q8", "Do validated implementations of the candidates exist?"),
)


@dataclass(frozen=True)
class AdvisorAnswers:
    """Answers to the eight selection questions.

    q1/q3/q4 drive hard filters; q2 drives a warning; q5-q8 are judgment
    calls carried through as notes.
    """

    q1_categories: frozenset[str] = frozenset(CATEGORIES)
    q1_guarantee: bool = False
    q2_adversary_required: bool = False
    q3_sources: frozenset[str] = frozenset(DATA_SOURCES)
    q4_inputs_available: frozenset[str] = frozenset(INPUT_KINDS)
    q5_audience: str = ""
    q6_related: str = ""
    q7_quality: str = ""
    q8_impl: str = ""

    def __post_init__(self):
        if not self.q1_categories and not self.q1_guarantee:
            raise ParamError("at least one output category must be selected")
        bad = self.q1_categories - set(CATEGORIES)
        if bad:
            raise ParamError(f"unknown categories: {sorted(bad)}")
        if not self.q3_sources <= set(DATA_SOURCES):
            raise ParamError(f"unknown data sources: {sorted(self.q3_sources - set(DATA_SOURCES))}")
        if not self.q4_inputs_available <= set(INPUT_KINDS):
            raise ParamError(
                f"unknown input kinds: {sorted(self.q4_inputs_available - set(INPUT_KINDS))}"
            )

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "AdvisorAnswers":
        return cls(*_ANSWERS(obj, "answers"))


# The JSON field type of each annotation in AdvisorAnswers.
_FIELD_TYPES = {
    "str": _string,
    "bool": _boolean,
    "frozenset[str]": lambda value, what: frozenset(_list(_string)(value, what)),
}
# An answers file may give any of the fields, typed by their annotation.
_ANSWERS = _fields(
    **{f.name: (_FIELD_TYPES[f.type], f.default) for f in fields(AdvisorAnswers)}
)


@dataclass(frozen=True)
class Recommendation:
    metrics: tuple[str, ...]
    warnings: tuple[str, ...]
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "metrics": list(self.metrics),
            "warnings": list(self.warnings),
            "notes": list(self.notes),
        }


def matches(d: MetricDescriptor, a: AdvisorAnswers) -> bool:
    """Hard filter: category, data-source overlap, and input availability.

    Optional inputs never block a metric; guarantee mode forces the
    indistinguishability category.
    """
    categories = (
        frozenset({"indistinguishability"}) if a.q1_guarantee else a.q1_categories
    )
    if d.category not in categories:
        return False
    if not d.data_sources & a.q3_sources:
        return False
    return d.inputs <= a.q4_inputs_available


def filter_metrics(a: AdvisorAnswers) -> Recommendation:
    """Run the eight-question selection over the whole catalog."""
    selected = tuple(d.id for d in sorted(DESCRIPTORS, key=lambda d: d.id) if matches(d, a))

    warnings = []
    selected_categories = {lookup(i).category for i in selected}
    if len(selected_categories) < 2:
        warnings.append(
            "fewer than two output categories selected; each extra category "
            "measures an additional aspect of privacy"
        )
    if a.q2_adversary_required:
        data_only = [i for i in selected if NO_ADVERSARY_CAVEAT in lookup(i).caveats]
        if data_only:
            warnings.append(
                "an adversary model is required but these metrics are computed "
                "from the data alone: " + ", ".join(data_only)
            )

    notes = []
    for key, text in (
        ("q5_audience", a.q5_audience),
        ("q6_related", a.q6_related),
        ("q7_quality", a.q7_quality),
        ("q8_impl", a.q8_impl),
    ):
        if text:
            notes.append(f"{key}: {text}")
    unimplemented = [i for i in selected if not lookup(i).implemented]
    if unimplemented:
        notes.append(
            "descriptor-only (no implementation here): " + ", ".join(unimplemented)
        )
    return Recommendation(selected, tuple(warnings), tuple(notes))
