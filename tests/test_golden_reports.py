"""Byte-identity of CLI reports: the sha256 of stdout and the exit code of
fixed commands, run in process through ``cli.main``.

The table was recorded before the graph layer's forest walks were
rewritten, so a refactor that changes any report fails here.  A change
that means to alter a report updates its row and says so in CHANGES.md.
``DIR`` stands for a directory holding ``K33_doubled.g`` (K_{3,3} with one
doubled edge) and ``fig2_host.g`` (the Fig. 2 tree with three more edges).
"""

import contextlib
import hashlib
import io

from c2lab import io as gio
from c2lab.cli import main
from c2lab.corpus import nonplanar_log_divergent
from c2lab.graphs import Graph, family, spanning_trees
from c2lab.invariants import THEOREM_IDS

FIG2_HOST = Graph(((1, 2), (2, 3), (3, 4), (3, 5), (2, 6), (6, 7), (4, 5), (5, 7), (1, 7)), 7)

# (command, exit code, sha256 of stdout): diag on every spanning tree of K4
# and of the Fig. 2 host graph, then c2, all ten verify ids, both admissible
# modes, census, count, poly and family.
GOLDEN = [
    ("diag --family complete:4", 0, "e18075e4decc1bf3a5ad51fb15b4b344731c6d491275f7e3469d30abf2068b57"),
    ("diag --family complete:4 --tree 1,2,3", 0, "e18075e4decc1bf3a5ad51fb15b4b344731c6d491275f7e3469d30abf2068b57"),
    ("diag --family complete:4 --tree 1,3,4", 0, "211935fac25b9b83264accc68cb8724ced9eab80224b49dc37eed623bb7604ce"),
    ("diag --family complete:4 --tree 2,3,4", 0, "f04ee2b2aed7552d2e279acdaca4cd89ff45f3bbf88a2256bf47d3a8b483d5b2"),
    ("diag --family complete:4 --tree 1,2,5", 0, "ab1ca4b33a427cb405ecc0b0c32349309b1945ce391530ea3133010ba2a0cd06"),
    ("diag --family complete:4 --tree 2,3,5", 0, "db26502255b51e7e77b968cc5c3111d04544f8a91614fc16a83eeca7a1b44a12"),
    ("diag --family complete:4 --tree 1,4,5", 0, "e12ffbc0c0c34f2a9570f1298490b80055ef61096f65cdb950cfddf53c47741a"),
    ("diag --family complete:4 --tree 2,4,5", 0, "d7a1c7f25375bf36a66c1e32086dd2937b5c254cd06ad0a03aac4133228a13e8"),
    ("diag --family complete:4 --tree 3,4,5", 0, "8cb7400b00f3d54ed22da3d1c34028eae013c67a4c5b48d91e8740f544c757f7"),
    ("diag --family complete:4 --tree 1,2,6", 0, "f741f2a68f47e360a8edd830065e4656df0fd5ceab712636ded129d9b1430f85"),
    ("diag --family complete:4 --tree 1,3,6", 0, "0f65a30f0ea0966a2c3594138155f12e46e0784439e179d6ad3059c1ef4da99b"),
    ("diag --family complete:4 --tree 1,4,6", 0, "cfb27905b75def698fbecb181cc7c32e2a6a16ec26f8a507f275052f4f85649c"),
    ("diag --family complete:4 --tree 2,4,6", 0, "c5cd7fc64c70c994269d674b03843151ff179857d40c25de00dfb6702c14e285"),
    ("diag --family complete:4 --tree 3,4,6", 0, "dad877bc5dd18b86c6ddda3c546f4b66f377268242dd38f91b86ed8e8846c9b0"),
    ("diag --family complete:4 --tree 1,5,6", 0, "e0997288003dbdb4e9ac686086a1b9e666caa865de1cc760c83a00c1aa78ed15"),
    ("diag --family complete:4 --tree 2,5,6", 0, "6dab81a563fe5475e488aa03234da1a130f6b5454d18561afb62c3f565e5b813"),
    ("diag --family complete:4 --tree 3,5,6", 0, "0fc3f8cfea60fcc98c303ef08a5516e665233d519e05e79ad7888d678828ab19"),
    ("diag --graph-file DIR/fig2_host.g", 0, "7b81030d0a3a2e9ecc55ecc88085ab20b0cbeece61b36e5cb36d6162ee71f998"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,3,4,5,6", 0, "7b81030d0a3a2e9ecc55ecc88085ab20b0cbeece61b36e5cb36d6162ee71f998"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,3,5,6,7", 0, "8f7efa199c9f381bd46ee41968d0521793ebe963bccf0891d551e8a5b23a01b2"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,4,5,6,7", 0, "2c863a9e79c7557cecec5e854bd0aba7a6bc60365606b1e74b3dbd38e55c0dbc"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,3,4,5,8", 0, "4e4e9dd0254e20e424df6fff4a44584775e6c47f36339222d8ec8389edb429ba"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,3,4,6,8", 0, "c557f374245f5a1f588a6a98cef31e4aa67f40e2aff21bae7d33fbac7e769036"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,3,5,6,8", 0, "98b27bd614b617f5cf749410b191390809d7109406e89d5a4fa249477a6d6dc0"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,3,4,5,6,8", 0, "6e4df892615a0932ae7569f8ce298989e79e30241452007400c641c162c897cf"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,3,5,7,8", 0, "300d0c9f07309e1c877d3d8f6006d7700edf672b3e73287f2e80b32037fb4608"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,4,5,7,8", 0, "bb20ea403394bb9dc491d0585ed74e564bbc366b2f80a63868215c4f62e8117f"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,3,6,7,8", 0, "48594ce67f65aea0e3b5dda5f3073783bf035c1ff51f6751154534bfea82a280"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,4,6,7,8", 0, "febf667c0a72d791293accee3c063a2b9c3f314c97ceb2b66c7a78efa8e63b4f"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,5,6,7,8", 0, "3fcfdd7e7fa2ed2ac74ee01a2abfe34f82a4ab52a5e97a250f54564012736524"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,3,5,6,7,8", 0, "6f0b7bb04af2076954a5901538c5b926034ffb357d9c19603a5552e0f5b0465a"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,4,5,6,7,8", 0, "4929f65bb427017d791b445b11c72007dccf24a8970acfebbec0f039c2fdd41d"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,3,4,5,9", 0, "20ef94fa705b08998ca324bea0e2cf532a41efd1f0a665aeff27032c92f246c3"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,3,4,6,9", 0, "869c76eee649d8ca8c7c34482f91bc261d45490d73e93a94d68e9cc565aed733"),
    ("diag --graph-file DIR/fig2_host.g --tree 2,3,4,5,6,9", 0, "ee5ca39c12c7175cbb6f868ed191e37d8b7660b6987aa06dee98a25a73f91fce"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,3,5,7,9", 0, "8fdad91d535d97c7fd47b3bf12884a42df621809fe2c872b9dfa52375030294a"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,4,5,7,9", 0, "390a52044c599f4ff3c008cc2a2a6af2d48b164020f6a12bff0dd299ba212855"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,3,6,7,9", 0, "1e8c22226a2728d69bc36023e23dba1772332b2666766da908e1a271fbd105b5"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,4,6,7,9", 0, "b07d07d896021223bee9f4c42c1edf9b8d976482370490b76ac99b5d8078e731"),
    ("diag --graph-file DIR/fig2_host.g --tree 2,3,5,6,7,9", 0, "d8f64a8044218849003421392aa73b32ebc9bffca9c9caaadef12e66e8d159e5"),
    ("diag --graph-file DIR/fig2_host.g --tree 2,4,5,6,7,9", 0, "64c917d49b22c148f6c3ebddc7bb6afc6498c3e301d7558a1952295b3eac1b28"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,3,5,8,9", 0, "532f83f327be2107e9df40f95f3a99d717dcf20e60eef46fbc62a9d90ed82eb6"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,3,4,5,8,9", 0, "ea04162e7edd89937d298676ae177c38ea37815855111920b04008e8b044cbe4"),
    ("diag --graph-file DIR/fig2_host.g --tree 2,3,4,5,8,9", 0, "c33b2ee41a486d266a229b9b8744da4f0fe305d5fde86890763a6dbc98d32e09"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,3,6,8,9", 0, "139f0dbffdd51c9cc753e01cd70a5f2633f0cd79e623c55c74abe6083fd52eae"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,3,4,6,8,9", 0, "10f896ad7eab0f070e004560d16ea1d961d874d32074544ded7f606ca0687c48"),
    ("diag --graph-file DIR/fig2_host.g --tree 2,3,4,6,8,9", 0, "7afa954fc2ba674277f4a554736d96fd838fef1dbacdbac282db89b7dd773779"),
    ("diag --graph-file DIR/fig2_host.g --tree 2,3,5,6,8,9", 0, "7fcb78307a7c3b4eabb5258b4d8ac282cc6ec5c1b1dec476c4f22de4a5a5a2f7"),
    ("diag --graph-file DIR/fig2_host.g --tree 3,4,5,6,8,9", 0, "55f22f6c337de09161973299a313a0a2147a4b19d216df162bb8e33b472bc2ee"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,5,7,8,9", 0, "bc967dd6c57b374c4df9d031bfa797ca55069b4a450240e36b66c52005ce7019"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,3,5,7,8,9", 0, "b0589e091c4be2a248c55526b1bed20ac88ca7c4d061d0282b11bdbbbe2f9e84"),
    ("diag --graph-file DIR/fig2_host.g --tree 2,3,5,7,8,9", 0, "7bc7ff8ebbeced7654a2b4a871ef78195afaaaed1d08aa6653f7b017f34bdf5f"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,4,5,7,8,9", 0, "3cd46bcc780dce0ac1a7d6d02506c182d25d8f0d29c0db51a281f0c52cb57245"),
    ("diag --graph-file DIR/fig2_host.g --tree 2,4,5,7,8,9", 0, "d126ebe75c844cab7b5632654f8e1b7e2790f5274191d1ada160539938735c91"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,2,6,7,8,9", 0, "5827f785f3c959c5acb5d849a75ce95c6ed7f184fdc3596f03861d1608bc417a"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,3,6,7,8,9", 0, "972fe3f081d39edeab4d63b53e8c4706b108c04f4a2aa5b7b35e64eb6c519776"),
    ("diag --graph-file DIR/fig2_host.g --tree 2,3,6,7,8,9", 0, "75c0fb61e0bf0e75cac40c7491528d00fe6655e5f791e3bfa5506534cf9685c4"),
    ("diag --graph-file DIR/fig2_host.g --tree 1,4,6,7,8,9", 0, "7c04928f83e87c4c8a1ad4f8806d2fde94b7a491995c23d421769bf569ea45a1"),
    ("diag --graph-file DIR/fig2_host.g --tree 2,4,6,7,8,9", 0, "afa9c4cf1134aeb4084d238f38e0fe9d79307b1f6cd0342f5cac14cf9dddb781"),
    ("diag --graph-file DIR/fig2_host.g --tree 2,5,6,7,8,9", 0, "9c0e732f53a1a6ca0756fb1c1b6b56fce13b785b5072f680acd42707e705b6db"),
    ("diag --graph-file DIR/fig2_host.g --tree 3,5,6,7,8,9", 0, "c8728888b578ca48473954c1b36cd2b80e5ad5634ee1279da0003aef41b50cdd"),
    ("diag --graph-file DIR/fig2_host.g --tree 4,5,6,7,8,9", 0, "613bcaaa93d67ecc9d0ead8d7bfb472956ad6cf5e4cb9eed5e1a11cf6314f823"),
    ("diag --family complete:4 --tree 1,2,4", 2, "74fdeafecb10da3d3890707ea12df1b685d847d8aca5b9eed6d3775868922f63"),
    ("diag --family cycle:4 --tree 1,2", 2, "244fe862444dc2417ba3683e616ebbdd6fdf262791db0d7d7d26ed52bf7faa6e"),
    ("c2 --family complete:4 --space all --q 2,3", 0, "8b980441803f7fbd19105f60ed19fa2787c4c094484f3482ff274a17728ba7c9"),
    ("c2 --family wheel:3 --space all --q 2,3", 0, "a6d8229c12a8a34cf9987204b06b6c2c0fd8c845ffb469ad83c0fb42f9a30e24"),
    ("c2 --family Gn:3 --space all --q 2,4", 0, "1b3ee41da244907ffba5e4113ac163f5de39b75af4d9d94e2389bcd2ff211e7c"),
    ("c2 --graph-file DIR/K33_doubled.g --space all --q 2", 0, "2197008233d71e6bba4214e12c0706fb96e52334a90e9e84810db9f840488290"),
    ("verify --theorem Prop1 --family wheel:3 --q 2,3", 0, "c52cc5700c05ee8ceb5cfdd72ed694653f2da243e1b6966c0f4722da52754073"),
    ("verify --theorem Sec3Thm --family complete:4 --q 2,3", 0, "a1675d2f84eae1218f389b66b0b2230b0bc93151a3f45dc014942aa5b6ce1a4b"),
    ("verify --theorem Thm2 --family wheel:3 --q 2,3", 0, "c366db2eb496999cdd34e695e794bb842c1cda1eb12977550c3c3a2824836264"),
    ("verify --theorem Thm2 --family Gn:2 --q 3", 1, "c604e0dae9d8e0b0e1cf3076ecba332c9e2eb301efc2c3da544e57771c8e1f96"),
    ("verify --theorem c216 --family complete:4 --q 2,3", 0, "995d4b8a31ac0746c82fb3e0664b24e741419db1871771ece55d895d15460485"),
    ("verify --theorem c220 --family complete:4 --q 2", 0, "174a1684f9f00263ae144a6ee08f50cfd1ad688c7578990a5e9759d24a0c3a96"),
    ("verify --theorem cor35 --family Gn:4", 0, "ce0742a24fca9cd385d53faf74a82e45b4c5369adea66ae86af2e550591a2099"),
    ("verify --theorem lem36 --family Gn:4", 0, "147b1696e830c46f10607b642d040a8d9d322883a24494fbecbc5bc169f37b62"),
    ("verify --theorem p4 --family wheel:3 --q 3", 0, "51dc2744f17d039eace383efd9fb8f0642c494d7615fb2b1759626290fe73eb4"),
    ("verify --theorem prop34 --family wheel:4", 0, "a2479d3e26100ec658e4ace9660f1d4908eb6f2c6703804a3a38ad513f94fd93"),
    ("verify --theorem thm20 --family complete:4 --q 2", 0, "1eba70c6fdbbd53162ec5d1eb2193200079938d0b814f28f6d14ec1a8cdbc0fc"),
    ("admissible --family wheel:3 --mode structural", 0, "67718302757c1a149b825752e6d5ef724116c269e1f466b0e7cdb07b19a9ea03"),
    ("admissible --family wheel:3 --mode at-q --q 2,3", 0, "5e99a34b5c0259b5dfbfd2ca14efacf5ebfb45a3dddb1167f8d8b2295060d6c9"),
    ("admissible --family Gn:3 --mode at-q --q 2", 0, "4322f93c1425b99ffc5a4a3bccef517b0891007f3ab6ca2c7a10ee7bbd8ff6ad"),
    ("admissible --graph-file DIR/K33_doubled.g --mode structural", 0, "99fc1472dd7cfe637ece2aa41d2ab75de7e773adc6054fedf44fb1af3922f774"),
    ("admissible --graph-file DIR/K33_doubled.g --mode at-q --q 2", 0, "85957e25cd6910df8c2a7333e7707a4525f1f7c202a02de08f14f94d00981111"),
    ("census --family wheel:4 --u 1 --v 1", 0, "f37019611baf879074ed496fc340c8bf8152e3d64f50e448f86b54a4d8d83205"),
    ("census --family Gn:4 --u 0 --v 2", 0, "8e76c959459a90e2a6148a0cd717977bc3f5b9b24c83274a731ec1cf5ec4ace5"),
    ("census --family complete:4 --u 2 --v 0", 0, "68ced5ea48490bad7b8c03af0f784565ada68c1303acc50c50c5026374d98736"),
    ("census --graph-file DIR/K33_doubled.g --u 2 --v 2", 0, "9b0183c545ef8921cec833c135c87b2093e307b174f5d710808d30e2ac75eb3b"),
    ("count --family wheel:3 --q 2,3,4", 0, "6cd76e68bf0708b6ec51a8e51b7626ad9691c60f7c61a9263340e69d3b4c866a"),
    ("count --family wheel:3 --which phi --q 3 --torus", 0, "72c7bcd2c94df0bafaea8f6724198094f40117f56a0a2e344f4ea3c28c64401c"),
    ("count --family Gn:3 --q 2,5 --torus", 0, "9ebceb979b2dac9f082d8247e4ddb50552f514523afc108bd563a5a67ed1df4f"),
    ("count --family complete:4 --q 5 --method reduced", 0, "4ccf5f0d9a81b2a5fe19a716c37f61467ecf5f95d774dbc8b9bc1012385fc672"),
    ("count --family wheel:4 --which phi --q 3 --method reduced", 0, "2d8cb951645e749ddd3253cb825703b253ce0770d8c774a2c6854c3f5600c13e"),
    ("poly --family wheel:3 --which psi --format json", 0, "f02a0014a09070528a4d512211efadf755cca2491659500d615c4d66faece1c1"),
    ("poly --family Gn:3 --which phi --format json", 0, "8f20603cf9547a0c9c5eb4f4213f83a2008c906424624d0ad83b9b972397fe33"),
    ("family --family Gn:3", 0, "3c45154a99e56df6c36a83e3e7ca03fd3c85c0310f67d7aea1cd953499dbeefa"),
    ("family --family wheel:4", 0, "ac002a350a802ee89b814ea798ccb78f42155e6dc1977484fcf887d0d4ec3c56"),
]


def test_reports_match_recorded_hashes(tmp_path):
    for name, G in (("K33_doubled.g", nonplanar_log_divergent()), ("fig2_host.g", FIG2_HOST)):
        (tmp_path / name).write_text(gio.graph_to_text(G), encoding="utf-8")
    changed = []
    for command, code, digest in GOLDEN:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            got = main(command.replace("DIR", str(tmp_path)).split())
        if (got, hashlib.sha256(out.getvalue().encode()).hexdigest()) != (code, digest):
            changed.append(command)
    assert changed == []


def test_table_covers_every_diag_tree_and_verify_id():
    commands = {c for c, _, _ in GOLDEN}
    for spec, G in (("--family complete:4", family("complete", 4)), ("--graph-file DIR/fig2_host.g", FIG2_HOST)):
        for T in spanning_trees(G):
            assert f"diag {spec} --tree {','.join(map(str, sorted(T)))}" in commands
    assert {c.split()[2] for c in commands if c.startswith("verify")} == set(THEOREM_IDS)
