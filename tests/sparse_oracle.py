"""scipy views of the library's exact operators, for tests that use scipy as an oracle."""

import scipy.sparse as sps


def csr(op):
    """The ``IntegerSparseOperator`` ``op`` as an int64 ``scipy.sparse.csr_matrix``."""
    dim = op.window.dimension
    return sps.csr_matrix((op.vals, (op.rows, op.cols)), shape=(dim, dim))
