import numpy as np
import pytest


@pytest.fixture(autouse=True)
def numpy_ufunc_state_is_restored():
    # The package changes numpy's error handling and ufunc buffer size only
    # for the span of an ``np.errstate`` block or of ``_slobodeckij_sum``'s
    # loop; a value left behind would change how later calls warn or buffer.
    before = np.getbufsize(), np.geterr()
    yield
    assert (np.getbufsize(), np.geterr()) == before
