"""The bytes of plan JSON are a format: the sha256 of plan_to_json for every
built-in grid expression at every valid procs count is pinned here, so any
change to plan bytes is deliberate and shows in this table."""

from __future__ import annotations

import hashlib

from moa import lower, plan_to_json
from moa.verify import builtin_grid

# (grid index, procs): sha256 of plan_to_json.  Grid entry 13, the reshape of
# a transposed outer product, is missing: it has lowered only since a reshape
# keeps its child's digit stream, and test_lowering runs it at every procs.
PLAN_SHA256 = {
    (0, 1): "87816af39cbdd4c34ed3ee36730d5832355b7c4f4d882a1671bd5bdb71864c46",
    (0, 2): "0a7881b12a2bf0edf4f5944050d4392dfd64a8136aa7bacf730e26ed8c594537",
    (0, 4): "56dd3942f20ea7b506a4da6e7a2899b64280753dc8ea0138e1b5540334234c16",
    (1, 1): "ca035e99e8c927e9744e69f1fae757b02091b15a5f27ae1627d8f31640727463",
    (1, 2): "7a2bd6b4a048ff33b7065b768ca6c2edc4e7dc04b353c8b6f1a579646355f9b1",
    (1, 3): "a17b34b0576fc10d0aeb307e14067a60b3daffc9b3bf31144e3ba9b33e3cfd22",
    (1, 6): "de571751637f5c28ea2b342313403d945ce821bd4505ed14c65d276231680b1a",
    (2, 1): "6bbb834e08e96ecb91bce24bb0faff281eb80dbf85e96c4f1323c09c95b2d30a",
    (2, 2): "4e8c4bf14e91ea9e8500e4b393882d9d3511bb3e160adfada82cc52d839ccf1a",
    (2, 4): "9c42d0e59a93d84264b204e16024049637c0638c3b3aa95506a3a72ffd85c003",
    (3, 1): "ad1f549c674ced1afd76613e9a262a23f3152434b83aba7f64a213b43e56d970",
    (3, 2): "4978e25427a0742504b6a0faeef20eae4f6a3972aa49d7cb9364828613ce7e5f",
    (3, 3): "3b62be6675e18a1618c529daf5c6d86a18d0060deb2d29ea6123bd204a410d7a",
    (3, 6): "5d0e06afaf456db98fe8b0d9a7516b017076290c5a19c366a2ddafa1b6176d2c",
    (4, 1): "2862f39d33bf3b34d867adba522c7d240985979c6451edb23810fe7b0d7d4ed5",
    (4, 2): "e1f158da0955224c34d620d74c7b6013896a5b0fd91944a31ccf269b7aa3dc22",
    (4, 4): "34e966d470618604c6c3b8e35f997a33ccea57036e09e028222f70328498deae",
    (5, 1): "abc19e72ccc52c0335446e464fb579e700b2bdaaf6bd7613e2cb2b125d1bb6ae",
    (5, 3): "511038ea78f994cee1fee55ae0dccd60ea00273996893511778444c5e728e9d5",
    (5, 9): "fb034b2423a13bf04e08b670c7eb5dc8487a9f152a7449826eddd5bd83eacb91",
    (6, 1): "cdaee4be2ef4256caf65fefc815d00cc430f91f3562049c0beb5480249c86295",
    (6, 2): "57e5da543dfcee37c25595515e459fe4ac048bd0e93be975c48e043cb0e46758",
    (6, 3): "298cef58a00453fa68d000347ff1560d0c8db0720b9589be014c198a51cc7baf",
    (6, 6): "ca14abef0935ab7fbf8f5c0a5bda5854b0e0abd78a1e7092515d7e639176e51c",
    (7, 1): "2bd3469cb99ec22ba1f59175034ed30a3821f944c4f1b006b5f80e1c22e38ff1",
    (7, 3): "f23f2d15798145b4b6fc4a091d6784e4d1367e4eaf36543544c8ba37a4c6a8a4",
    (8, 1): "f4789e1a650178b15fed4804c2917449dbc01b3ba0c97d09d5a7fe8b7b948f94",
    (8, 2): "26b8c2a6cad63399a5e4338648b2cb2eb84cccea4313563512147b633baa3046",
    (9, 1): "fa0254024e02468fb096e4fe0ac10447cf1b918c10110bf0b9bcf2f748a6b5e7",
    (9, 2): "099bb3973a36f02ee584a2a2b678162cf494fea904ee0a6f419afffc77dd8ddc",
    (10, 1): "5bd4275bfdf7d3db10d52be8f1f293b4a293311f8f33bc3c00de52395d493557",
    (10, 2): "4406f25c0c0d1051e72ca76b4ecbb5856e5992cd503957cbf433900e18dca92c",
    (10, 4): "bafc4e40e0e644924b2aa2838364b972795c25893d463de595791691096f1afe",
    (11, 1): "90e22f98dab78fc1f0f7546a33ea37112876989fafe813b25b13feb5d45afb25",
    (11, 2): "7c365c5ef68da9fb09c4f38388fd245d05d708a8826af933e3581a20a25ea724",
    (11, 3): "a37d74235ecad69fc8dec1a7527d9d3b1431e843f82756e2b4c7a9dfcfcc46d1",
    (11, 6): "9b98c5578ca606a2b624e209f4c0c1dde4f50e597f21d58ba52d54c40afc15d9",
    (12, 1): "938d472ea02bf2584b666608a6cd1dda5bd3300f5362a8f4d36e487cd84b0cb0",
    (12, 2): "bc706509326c6704d3d8d5b39f2c7ba11582d55602773bb811e70bf102c493dc",
    (12, 4): "0d7d2ad21ab1d2f79edf021c6edca05d95849d4edebe24a15b76e237474d169c",
    (14, 1): "a3744000a16b7de5e592cb4e7def0830f77082c97701e55c56aa3c4c1e5fbb46",
    (14, 2): "76d52c37af1b615aa59bdea24dab69ac6d429293670667ec5017e9290ed6fe43",
    (15, 1): "004414dc60b1f84450816b1add695d5ae0446a8c66d2df3f81b551961d66b4f7",
    (15, 2): "4110ba31bd51a3226ad5240dbd2941c04acf1dac857422385288d27f767c188a",
    (16, 1): "b80885955002771ff7f9b1b1668562692db0ecc95bdf5342584c5a1ebaed7d4e",
    (16, 2): "061ff002a788fd62bf0b9f5f3f71cc8389bff7bcd2efccbafe7d348f1adfd0c0",
    (17, 1): "b49cba47996ac79bd8565ddc94ff06ebcd2ebf3cb3527ce100a900e295ede8fd",
    (17, 2): "1ecc87c74ae782d74ff12fe1d30f8919de807606f4b729fde250909a5c2925d9",
    (18, 1): "232afb131946b3c9f31ad2647bcfab7817e8f6427ed92b5455512446feac8e99",
    (18, 2): "2b829297150e559cf17c5ea2a765119a34c741db2710af3db1ffa5af8f6dba9c",
    (18, 4): "80afc69406cbed60b558b3cb64b27f527d8e084969f0b2db1f53f3b2fdf3e49e",
    (19, 1): "e76fd6883515694c7bf60daccfe484ba561af8ec9ce5f91771d17ddccaead139",
    (19, 2): "d11756b2255fab1e2df2ee94cd84b682c157a08e979d0032f9eb1b985cb5ce4d",
    (20, 1): "3944d701d8dc488abab093e156f6cba0894c8b683289c26eca788cf72e72ccb8",
    (20, 3): "4b64d391eebf7be78d932419140eea2fa4cb2b868869f6a313db034e1efef08b",
    (21, 1): "65eb7726d25fc83b2ac4341b962c23cc59ac5ebf83fd816e633a1077b10338ea",
    (21, 2): "91e0888dd3761a376ae2ddd886d0c68863478f6bc4ff7052b50630e34c7a8554",
    (21, 3): "d3102d471fbab2dddb717c7c8a8da94bdcddeae4943c365f4235e31c2025471f",
    (21, 6): "61ba61c15b060a783754fbbef315b06e997a0f5782e7b5ad834616587b09eb5e",
}


def test_grid_plan_json_bytes_are_pinned():
    grid = builtin_grid()
    got = {}
    for index in sorted({index for index, _ in PLAN_SHA256}):
        outer = lower(grid[index], procs=1).loops[0].count
        for procs in [d for d in range(1, outer + 1) if outer % d == 0]:
            text = plan_to_json(lower(grid[index], procs=procs))
            got[index, procs] = hashlib.sha256(text.encode()).hexdigest()
    assert got == PLAN_SHA256
