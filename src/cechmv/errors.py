"""Error taxonomy shared by the whole package.

InputError covers anything a caller or a job file can get wrong; the CLI maps
it to exit code 1.  ContractError flags misuse of an internal API (wrong
shapes, region that is not a subquotient).  InternalCheckError is
raised when a structural self-check fails (a differential that does not
square to zero, a spectral page that disagrees between two computation
paths); it always indicates a bug, never bad input.
"""


class InputError(ValueError):
    pass


class ContractError(ValueError):
    pass


class InternalCheckError(RuntimeError):
    pass
