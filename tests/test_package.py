import tensorpress


def test_every_public_name_resolves():
    # a stale __all__ entry leaves `import tensorpress` working but breaks
    # `from tensorpress import *`
    assert [name for name in tensorpress.__all__ if not hasattr(tensorpress, name)] == []
    namespace = {}
    exec("from tensorpress import *", namespace)
    assert set(tensorpress.__all__) <= namespace.keys()
