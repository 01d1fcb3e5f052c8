"""The package namespace: every exported name resolves."""

import fibercurve


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from fibercurve import *", namespace)
    missing = [name for name in fibercurve.__all__ if name not in namespace]
    assert missing == []
    assert len(set(fibercurve.__all__)) == len(fibercurve.__all__)
