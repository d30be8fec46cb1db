"""Dataset heterogeneity estimation from three proxy statistics.

The proxies are the number of unique whitespace-delimited words, unique
characters, and unique line lengths in a dataset. Each is normalized by a
reference corpus (an industry log sample by default), capped at 1.0, and
combined with 40/20/40 weights into a single score H in (0, 1]. The unique
character count gets half the weight of the other two because its normalized
spread across datasets is roughly half as large.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import stdev

from .corpus import Dataset
from .errors import EmptyDatasetError, InsufficientDataError, InvalidReferenceError

#: Weights of (unique words, unique characters, unique line lengths).
WEIGHTS = (0.4, 0.2, 0.4)


@dataclass(frozen=True)
class ProxyStats:
    """Unique-word, unique-character, and unique-line-length counts.

    The same triple describes a dataset and the reference it is normalized by.
    """

    nuw: int
    nuc: int
    nuldl: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.nuw, self.nuc, self.nuldl)

    def as_dict(self) -> dict[str, int]:
        return {"nuw": self.nuw, "nuc": self.nuc, "nuldl": self.nuldl}


def check_reference(ref: ProxyStats, key: str = "reference") -> tuple[int, int, int]:
    """The components of `ref`, which must all be positive to divide by.

    Otherwise raises InvalidReferenceError naming `key`.
    """
    if min(ref.as_tuple()) <= 0:
        raise InvalidReferenceError(
            f"{key} components must be positive, got {ref.as_tuple()}"
        )
    return ref.as_tuple()


#: Measured on a 2K-line industry log sample from a large production system;
#: as the normalization anchor, it scores H = 1 itself.
INDUSTRY_REFERENCE = ProxyStats(nuw=4421, nuc=92, nuldl=181)


@dataclass(frozen=True)
class HeterogeneityScore:
    h: float
    components: tuple[float, float, float]

    def as_dict(self) -> dict:
        return {
            "h": self.h,
            "components": {
                "nuw_ratio": self.components[0],
                "nuc_ratio": self.components[1],
                "nuldl_ratio": self.components[2],
            },
        }


#: The 29 code points ``str.split()`` splits on, the characters no word holds.
WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
    "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


def proxy_stats(ds: Dataset) -> ProxyStats:
    """Count unique words, characters, and line lengths over all contents.

    A word is a maximal run of non-whitespace characters; characters include
    spaces (contents carry no line terminators); line length is the
    code-point count of the content.

    Every character that is not whitespace belongs to a word, so the unique
    characters are those of the distinct words plus each whitespace character
    found in the contents; the words are split from one space-joined text.
    """
    if not len(ds):
        raise EmptyDatasetError(f"dataset {ds.name!r} is empty")
    contents = ds.contents()
    # The joining space ends a word, so no two contents' words merge. It adds
    # len(contents) - 1 spaces, so a space counts only beyond those.
    text = " ".join(contents)
    words = set(text.split())
    nuc = len(set("".join(words)))
    nuc += sum(c in text for c in WHITESPACE if c != " ")
    nuc += text.count(" ") >= len(contents)
    lengths = set(map(len, contents))
    return ProxyStats(nuw=len(words), nuc=nuc, nuldl=len(lengths))


def h_score(stats: ProxyStats, ref: ProxyStats = INDUSTRY_REFERENCE) -> HeterogeneityScore:
    """Weighted sum of reference-normalized proxy ratios, each capped at 1."""
    components = tuple(
        min(s / r, 1.0) for s, r in zip(stats.as_tuple(), check_reference(ref))
    )
    h = sum(w * c for w, c in zip(WEIGHTS, components))
    return HeterogeneityScore(h=h, components=components)  # type: ignore[arg-type]


def metric_variability(
    stats_list: list[ProxyStats],
    ref: ProxyStats = INDUSTRY_REFERENCE,
) -> tuple[float, float, float]:
    """Spread of each proxy metric across datasets, reference-normalized.

    Returns the sample standard deviation (n-1 divisor) of each normalized
    component. A larger spread means the metric separates homogeneous from
    heterogeneous datasets more strongly, which is what motivates weighting
    the components differently.
    """
    if len(stats_list) < 2:
        raise InsufficientDataError(
            f"need at least 2 datasets, got {len(stats_list)}"
        )
    scale = check_reference(ref)
    columns = zip(*(s.as_tuple() for s in stats_list))
    nuw, nuc, nuldl = (stdev([v / r for v in col]) for col, r in zip(columns, scale))
    return (nuw, nuc, nuldl)
