import pytest


@pytest.fixture(autouse=True)
def cold_kernel_cache():
    """Each test, under tests/ and bench/ alike, starts without a cached
    Nystrom operator or Gamma, so none passes only because an earlier test
    built them.  mifht is imported here, not at the top, because bench/ puts
    src/ on the path only when its test module is collected."""
    from mifht.solver import clear_kernel_cache

    clear_kernel_cache()
