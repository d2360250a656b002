"""The seeded synth builders are pinned byte for byte.

The sha256 of the sorted-key JSON of serialize(builder(*args)) is recorded
for all twelve builders, at their defaults and at (150, 1), (150, 2) and
(60, 3): a change to a builder's field, its draws from the seeded
generator, or the order it draws them in shows here.
"""

import hashlib
import json

import pytest

from twistctl import synth
from twistctl.eigensystem import serialize

DIGESTS = {
    ("vantop_system", ()):
        "674b636996e9a989265c9fb606e945c06242aea9d2937152120e6df06eb731dd",
    ("vantop_system", (150, 1)):
        "a060b1f2909731f4bbc2e83a7314a1c984f6bdfd51d33ecc0bf35d7580afd592",
    ("vantop_system", (150, 2)):
        "6aba1e4f143a4902348b4d9f107ce8112afcd4016597bb8505e412ea5cfa9e62",
    ("vantop_system", (60, 3)):
        "2bfb21afdad706cf9b31d4e02df47a8c164960364275f19f42a056eacaaa8148",
    ("generic_system", ()):
        "9c89702f0bae15e9de69f235a3a47bfb682b1e5a0e96444b35c9bc436fe753fe",
    ("generic_system", (150, 1)):
        "20d7fdc043883a55bc499db751b1cc11e167e5e76b08ee4000f396d52d2a05db",
    ("generic_system", (150, 2)):
        "f04a41d67816597522c98dfc5f62bffa7bf0db164865884ae4e02e6ef432570b",
    ("generic_system", (60, 3)):
        "52e6f9b716bb3115746ceb5431f07da6c27caa2aae4cd2b8b84e2cbadb60b90e",
    ("rational_inner_system", ()):
        "d5dd63916283a2cd76e573ea916603bcbec44ebb104ecd70edb34245e5cc57c8",
    ("rational_inner_system", (150, 1)):
        "0668d94c34bf43449f612f2ad8dcddac3a9feff926e1b670c5539e90b6840ea2",
    ("rational_inner_system", (150, 2)):
        "e1458169362855b9b742dc7c7225d39132ae6106d30adb8d59eb69fce01aebc3",
    ("rational_inner_system", (60, 3)):
        "aa14eed3e8e4684727d9caa28a0455661806376ee28a0d54bebfd840494f957e",
    ("klein_system", ()):
        "6c9b9a8734fabd3109d7b603ac74f9065647b9280b23e180c9e620830272d90e",
    ("klein_system", (150, 1)):
        "b7c98ecf60df12fe5682069f8f922ba85b3e859688269b931d7fedcaea538831",
    ("klein_system", (150, 2)):
        "b7faf2be864f5f19a8096eac752acfd9599a553b3576aa85f0ca3a89564d7bf8",
    ("klein_system", (60, 3)):
        "b457a902f28d776196fa34dea15d5a35d5cfd4e891d1d473b62e2fef9626b330",
    ("chi4_system", ()):
        "04f5ba097998db16cd90b285020822a8fdf4b7fd09d2f45b279541941d2397ad",
    ("chi4_system", (150, 1)):
        "3fbf32904696263b8d4e768c1897d2d83dea709629305a08d15f86bbf45742ae",
    ("chi4_system", (150, 2)):
        "2b21baffd09b624e6c2796094e811a0d36b66cf23e6c83694af62525ad2157e4",
    ("chi4_system", (60, 3)):
        "2bd1ffca109cde64cf31154247b019f128ba141d171dd6f91b775900acf3acf6",
    ("cubic_twist_system", ()):
        "2cdf518f2e745b9d1737a145be8d5530ab3e5e7f066850f35b963f8d2790374f",
    ("cubic_twist_system", (150, 1)):
        "7c230069120316e0f1cf6ac484052f8ce4937ddff5858ee11e1f60c235306284",
    ("cubic_twist_system", (150, 2)):
        "4777a1dd97d841bf6e4875d50d0341533141401844dcece7eb6d7e7f6f9d24f0",
    ("cubic_twist_system", (60, 3)):
        "e7289243d07b97d3761dd87ad4cad24922549332251d1a14fbf1f21e4da3bafc",
    ("selfdual_system", ()):
        "0329b2b2097167f0bfbba903020f63640a4f209b5086d22b0cf83bbbf6c189c7",
    ("selfdual_system", (150, 1)):
        "f71c82c515a1c372ea7662ee80f24a8f8bd1f5ee8c963fc80742060d26dece16",
    ("selfdual_system", (150, 2)):
        "9f77c89d8bed914148956b40d39fdefd6181c8b38e4f09a647a0fb94473ebbaf",
    ("selfdual_system", (60, 3)):
        "5b5b12875a2838ef4d3c8ab1d35c3f69d11210e27af4f605d2b1242836baa14b",
    ("cubic_klein_system", ()):
        "64f52c9cd12a2bee4eb692853ab3c9bb20afe0bc5c8728ce31189510f912fd1b",
    ("cubic_klein_system", (150, 1)):
        "294560d39671d04ba8cc6ca970f852bc8ee54a4b6603b533d5fc962cc54519cf",
    ("cubic_klein_system", (150, 2)):
        "caf2de6b06e7efc658ddb6db4999489159792b1e8dbd99f353151b224330abfc",
    ("cubic_klein_system", (60, 3)):
        "3da652fd3ee829721920b3392fe37afc1aeb00da32dbfb528d8a8be00658ae6f",
    ("drifting_coefficient_system", ()):
        "cf36f67fb91dad08e2fd11c5d8f6512538344d845f526dd61ee2cd700d626917",
    ("drifting_coefficient_system", (150, 1)):
        "16b0bfa638b7749ed8d8145f67b9aba417389cd2439070bd9a43131fa368a338",
    ("drifting_coefficient_system", (150, 2)):
        "3bd63bc5d15dab49a5039425c705c653a0a754bf5d58bfc4ef836c81e27bdce4",
    ("drifting_coefficient_system", (60, 3)):
        "ae75d6ee3e61459428dbf3d12932666196af3e012cb966c0cfe56a5d355206af",
    ("rational_rank2_system", ()):
        "f1a6182e99e1c50d800a8c2fddc8dd3ccbd2ccda4ad532bf02cf8ebc875da2eb",
    ("rational_rank2_system", (150, 1)):
        "9d213827d08d6ef310712e8adfc7453b84959d1fc4435a804562814348d88cbd",
    ("rational_rank2_system", (150, 2)):
        "23255172e4a7b455b20460ded9b5a25e509cc47f9fb482c49d49998f5f8eb951",
    ("rational_rank2_system", (60, 3)):
        "62946111483c03f4e0ce5f4094b989e4a921e759c7d08c3936f4296ec2a5e0a1",
    ("quadratic_rank2_system", ()):
        "5b136fb6eb1e1571b21cdc6bf3ac4f110acccba5157254220440c3efe4128432",
    ("quadratic_rank2_system", (150, 1)):
        "2ac95e9b45ab899aadebf99e8729ea374083d74746715c71ccaec96f36d9ef62",
    ("quadratic_rank2_system", (150, 2)):
        "808e119d2f1a0922a8e58468d7b5ce7bf8cd679d872307adef3921793acdbf83",
    ("quadratic_rank2_system", (60, 3)):
        "9c6635fc25f8016273333017a8ab8018f42b60096171bb0c436479bff3efeb1e",
    ("cm_system", ()):
        "084c2e10ef8179f88e0d5af085454a063dab3cafebd04864bae96c72376d16f5",
    ("cm_system", (150, 1)):
        "77e959ab1e0634319d816a0f8645e1231853b02215de0f761e767b8091d238d6",
    ("cm_system", (150, 2)):
        "2d372ab8ec85a5e015be1e7bf29e79c8cb7ce07841771f8c5651c69d035f16fe",
    ("cm_system", (60, 3)):
        "672e347a1e8af55b5b3aba3c73e856581b0324e9c154fe2d4ce8ca3a93ba5842",
}


@pytest.mark.parametrize("name,args", sorted(DIGESTS),
                         ids=lambda x: str(x).replace(" ", ""))
def test_builder_output_is_pinned(name, args):
    doc = serialize(getattr(synth, name)(*args))
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == DIGESTS[name, args]


def test_every_builder_is_pinned():
    builders = {name for name in vars(synth) if name.endswith("_system")}
    assert {name for name, _ in DIGESTS} == builders
    assert len(builders) == 12
