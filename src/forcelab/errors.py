"""Named contract violations shared across the library.

Every error the library promises to signal has a stable ``code`` string;
the CLI surfaces that code as a JSON field instead of a traceback.
"""


class ContractError(Exception):
    """Base class for all named contract violations."""

    code = "contract-error"

    def __init__(self, message: str = "", **details):
        super().__init__(message or self.code)
        self.details = details


# --- ordinals ---

class SsupOfEmpty(ContractError):
    code = "undefined-ssup-of-empty"


class EmptyComponent(ContractError):
    code = "empty-component"


class OrdinalOverflow(ContractError):
    code = "ordinal-overflow"


class MissingLimitLength(ContractError):
    code = "missing-limit-length"


class NoOmegaBijection(ContractError):
    code = "finite-ordinal-no-omega-bijection"


# --- posets ---

class BadExtender(ContractError):
    code = "bad-extender"


class NotAChain(ContractError):
    code = "not-a-chain"


class OracleLimit(ContractError):
    code = "oracle-limit"


class NotAPartialOrder(ContractError):
    code = "not-a-partial-order"


# --- collapse / qtree ---

class NotInjective(ContractError):
    code = "not-injective"


class NotAQSeq(ContractError):
    code = "not-a-qseq"


class NotInLambda(ContractError):
    code = "not-in-lambda"


class EnumerationDepthCap(ContractError):
    code = "enumeration-depth-cap"


# --- dctrees ---

class NotInTree(ContractError):
    code = "not-in-tree"


class BadSelector(ContractError):
    code = "bad-selector"


# --- levy ---

class BadBlock(ContractError):
    code = "bad-block"


class BadBlockWitness(ContractError):
    code = "bad-block-witness"


class OutOfDomain(ContractError):
    code = "out-of-domain"


class RangeNotDecidable(ContractError):
    code = "range-not-decidable"


class BadCofinal(ContractError):
    code = "bad-cofinal"
