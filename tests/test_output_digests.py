"""One sha256 per (document, command, format) of the CLI's exit code, stdout and stderr.

The six document commands run in text, JSON and CSV on the four bundled
fixtures and on the chord and tower roses of conftest for n = 3..6, with
the elements and options fixed below.  A change that should leave every
report as it is keeps these digests; a change that alters output on
purpose regenerates them with ``PYTHONPATH=src python tests/test_output_digests.py``
and says so in CHANGES.md.

The digests pin this numpy and its BLAS as well as the code: the witness
edges of the fixtures' Lipschitz sweeps are decided by the last ulp of the
Perron eigenvector weights, which another BLAS may round differently.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import chord_text, tower_text
from outgrowth.cli import main

ELEMENTS = {
    "golden_ratio_rose": "a b",
    "polynomial_rose": "b",
    "c3c3_swap": "P:1 Q:1",
    "c2f2_mixed": "P:1 a b",
    **{f"{kind}{n}": "a1 a2" for kind in ("chord", "tower") for n in range(3, 7)},
}
GENERATED = {f"{kind}{n}": text(n) for kind, text in (("chord", chord_text), ("tower", tower_text)) for n in range(3, 7)}
COMMANDS = {
    "analyze": [],
    "growth": ["--element", None, "--iterations", "10"],
    "displacement": ["--iterations", "10"],
    "verify": [],
    "bound": ["--element", None, "--iterations", "10"],
    "sweep": [],
}
FORMATS = ("text", "json", "csv")

DIGESTS = {
    ('golden_ratio_rose', 'analyze', 'text'): '4977cb272bb0774378cdaa113d54d674c8c223ead77c095e64a2f0e057ba93ca',
    ('golden_ratio_rose', 'analyze', 'json'): '2b147f53b1c1cf46630e952289e0cec1eb870d58383f3d1ba2ef7a11bf3c951d',
    ('golden_ratio_rose', 'analyze', 'csv'): 'ac3e7613a7a5ce97a7df822cae99a91bf344a031cc8b9170d053682600eeb4a6',
    ('golden_ratio_rose', 'growth', 'text'): 'c970deffde7556b59a1ff3fa100db322210999819913b599fa4a3b5f55211a96',
    ('golden_ratio_rose', 'growth', 'json'): '941a9b5f0b116c2302f0fd6c32cfad8326938cd18cc02b0dfa50172c252e1e78',
    ('golden_ratio_rose', 'growth', 'csv'): '60bd4b4ab1d180460b8ca39043703b14557160847986f469520d067c2501fcbb',
    ('golden_ratio_rose', 'displacement', 'text'): '0d3f12bebd104bb3f66dd0061aaf853e73cf8280f2d85a06dd45990395967e8f',
    ('golden_ratio_rose', 'displacement', 'json'): 'dfb29ab5b0250a840c670cd48214424df4784358f70fab7fc9b1ae55ccbc23ba',
    ('golden_ratio_rose', 'displacement', 'csv'): 'ec96145f45807182454a31e1093e950ae6d3832fe962c60cd0704dd849cc2cfd',
    ('golden_ratio_rose', 'verify', 'text'): '33c627e471c40f272ce7ac6bc872ad00139790329423846f28eca8c5539d9f87',
    ('golden_ratio_rose', 'verify', 'json'): 'f0e1c359929d09d2f012fee6920c2af1c7b3a14a3613e223de667df89721d4df',
    ('golden_ratio_rose', 'verify', 'csv'): '1d6ab7ce28081400aeb9ecca6f0b4e203e25b4f1928ff433f3bcf61295fd7e21',
    ('golden_ratio_rose', 'bound', 'text'): 'a044e3b7a407ca5bb7af231682318a32dc5ba5cdaae5e83f3c0c8e66be2c2694',
    ('golden_ratio_rose', 'bound', 'json'): '858505a79e7406739e2f91d8ffbbb2f3d0419a29743528d751c580da8fada78b',
    ('golden_ratio_rose', 'bound', 'csv'): '840529fc129cef7e1a08e1146abe483619f4dd37ee5fa873c432deb9dda43463',
    ('golden_ratio_rose', 'sweep', 'text'): '7cdf3aa108ff91573b1c058bfac6cc567b1d79ae07f8c478b77f45b4285efdea',
    ('golden_ratio_rose', 'sweep', 'json'): '073d245aed93d07642aa1426d69d6f46906aaba645b050543cb2aac8c5e94077',
    ('golden_ratio_rose', 'sweep', 'csv'): '80d39319d7aa073cf3f048db5f99889dad26a8abd22188a63e57b4c42f55f1d3',
    ('polynomial_rose', 'analyze', 'text'): '91c8c146307481059a901f313f7d3125e3d3ed4e1d89aab1e6e655f1054b6a13',
    ('polynomial_rose', 'analyze', 'json'): 'cc1ff8f602195e624a0dd288d04da06f6d0968ed2aea101862c7ee100abf9b15',
    ('polynomial_rose', 'analyze', 'csv'): '39fd2b31a1a6b60f43e93e793639778878e83559815196f168c509db4db81ebc',
    ('polynomial_rose', 'growth', 'text'): '89576626a2235fd5dd45a9d6c5a4ca79610e11224b1df7d63898ede351f702d5',
    ('polynomial_rose', 'growth', 'json'): '735966c8d1850c91f16da4da6f54c0311b4fb64b8ad17c40c2dee86024b6c9d0',
    ('polynomial_rose', 'growth', 'csv'): '7806bb8aae8077c3e33fce140e7bf15f1e65ef13d5801e54eb6db3280ef12a5d',
    ('polynomial_rose', 'displacement', 'text'): '1fb8a3abad77b8daa4e8cfb3c6e4eb2fd908b74548dec5292a85b927c14a5203',
    ('polynomial_rose', 'displacement', 'json'): '6073de54b7c0beb2d9ea08415554947f2443b0c49b6cb3bac1561a5ecf00fb32',
    ('polynomial_rose', 'displacement', 'csv'): 'ec7491c922e79bcc42f251d02f71979d9046433cbbcd655aaea134be4a5cef1a',
    ('polynomial_rose', 'verify', 'text'): '3a234dd939f1ce199bf07c6487ee7ff157ae96d581fd768f2a9e1d21eacb9fca',
    ('polynomial_rose', 'verify', 'json'): '53f0cff68aef69cd7202c777c574d3d9f79b7ff74bf72c0b774e2e25095a7a30',
    ('polynomial_rose', 'verify', 'csv'): 'c3dc6f90261682e37f7f19ce2e7297a2f4a5999dafb03e26ddab57bb21aa84ad',
    ('polynomial_rose', 'bound', 'text'): 'c8b8b9f072378fab087faf2842193452751a5970e89b0ca4e44655da2ae29a1f',
    ('polynomial_rose', 'bound', 'json'): '3fef306de44b17741d8f9ac762917cf33791fcd5a96ada21e46d434b0e4c62c7',
    ('polynomial_rose', 'bound', 'csv'): 'e5f0b6d11feec4dda2008dc570b8d82c49d0f2163a5b22e771a43351299eb5f9',
    ('polynomial_rose', 'sweep', 'text'): '574f8f9168c9f933d69dff4dde2ff29ed644ae94c447f33f53d1d97d98aa8db1',
    ('polynomial_rose', 'sweep', 'json'): 'bccff5769615b2bb0c956cfbf56c1376add7fbaf5db49e2a66196e15f234a8cc',
    ('polynomial_rose', 'sweep', 'csv'): '03854157fd8c7351aae1826cb6c4613fcc37541e8072c7eb5085aef699b26d9d',
    ('c3c3_swap', 'analyze', 'text'): '43ad2b1c6a6f8226e587839c827c6ff4ea52f79586255b95dda49f27b873e6ce',
    ('c3c3_swap', 'analyze', 'json'): 'e1232a436ce82b774a68a0bdea8b0971d1077af7212af65deb81d6a3a32ab0a1',
    ('c3c3_swap', 'analyze', 'csv'): 'c9cfe8ffb38e52c22f54fabe75b5cf82d41a6c3341d29f4ebc38453cb107cbd7',
    ('c3c3_swap', 'growth', 'text'): 'da6280b7c8d8ec2aa4f75ded2381dadd779041e0556c7b7f221b93be0dc92e87',
    ('c3c3_swap', 'growth', 'json'): '7e0d1aa84922beb687a494a92a680f90a553a135d3196e9aac1e92301ed65f81',
    ('c3c3_swap', 'growth', 'csv'): '8c008ac9274ee172c72ae87d00c607d14f60818ed01e75a5d8f0728973d5872f',
    ('c3c3_swap', 'displacement', 'text'): '5cd1d9ccbec20677de9f5e3e4a9dec6a6e71b699ec941518e7eb7e9c0cd3c635',
    ('c3c3_swap', 'displacement', 'json'): '9d18aada9e12e5f261474c04611ad98064d50e301eb5ea1db027aadd66c8b055',
    ('c3c3_swap', 'displacement', 'csv'): 'c79c8f20c540df635f568dbbcc067a53e54fcab1d3e51111d021485342f407aa',
    ('c3c3_swap', 'verify', 'text'): '33c627e471c40f272ce7ac6bc872ad00139790329423846f28eca8c5539d9f87',
    ('c3c3_swap', 'verify', 'json'): '60f962fa37f36715e8e84219296e4a1869d09c325bbff14e6940cf60b7434683',
    ('c3c3_swap', 'verify', 'csv'): '1d6ab7ce28081400aeb9ecca6f0b4e203e25b4f1928ff433f3bcf61295fd7e21',
    ('c3c3_swap', 'bound', 'text'): 'a1a84448a3e7f969dc7db571036a964a6a3a5ccbc57d606558d49c17c4066d5c',
    ('c3c3_swap', 'bound', 'json'): '5970f7d81687f0a886c842bc41ca8d705ffed64cec57616fe3cd78c2cc92e3c0',
    ('c3c3_swap', 'bound', 'csv'): 'e8fa3e2563a9cc6d835acf34564ca391548a2fc56fbda980ef38151f6fb36896',
    ('c3c3_swap', 'sweep', 'text'): '4f50a6578ffc9d0b9ba678640d48f1d998d7f22b2dd445a8b58b5b2174caeb8f',
    ('c3c3_swap', 'sweep', 'json'): 'c54425aab34aea1cf56f4d7c0d958233f5437dd7935b86d8044c22851d6aa981',
    ('c3c3_swap', 'sweep', 'csv'): '42d541c0346449e73b74645520085bf92132cdff78604b04508fb066294a4ad3',
    ('c2f2_mixed', 'analyze', 'text'): '5504c6056dc64b31e65b15b4629c32be52a95553bbb0bd3493c934d7257725f1',
    ('c2f2_mixed', 'analyze', 'json'): '3e9cb18380b7df8f632724f24036a591683b35af7c9bf957224a3f9d8aef7e36',
    ('c2f2_mixed', 'analyze', 'csv'): '55a7ffded4466c2eac8b382a48f4a495ff52bf4a2968d66c4cc45f207765d8fd',
    ('c2f2_mixed', 'growth', 'text'): '6b4a309003e58f9a3bbc3629a81453189458cba0cf5b015a5d1b66cea1bf14bd',
    ('c2f2_mixed', 'growth', 'json'): '7625bd9ab078c98709fd5ebe80c934c2d97d5df1fabddfe60ed5ccc6e1e7fcdb',
    ('c2f2_mixed', 'growth', 'csv'): 'e776429b6d71d57d3ff34b9dceb7be1e98d6550e3454be705fb1cfcfccd12bae',
    ('c2f2_mixed', 'displacement', 'text'): 'b1ed07e9beba5ee12b4baa177143654d76f376474e0da31cc49766820d3a6230',
    ('c2f2_mixed', 'displacement', 'json'): '21ace6f94fc75d27d3f231dc02adf78e10d3ee64eaceba9e8d562fc83d112b35',
    ('c2f2_mixed', 'displacement', 'csv'): 'ec96145f45807182454a31e1093e950ae6d3832fe962c60cd0704dd849cc2cfd',
    ('c2f2_mixed', 'verify', 'text'): 'a8c8fdf4d511f4eba173959d883f1bb8219c781d41ad522c26c93aa85b5841b1',
    ('c2f2_mixed', 'verify', 'json'): 'da0edd6465387ad15d74e9285bd7a7ea6ad5d5f5f1ac4d35200610d590ff6cba',
    ('c2f2_mixed', 'verify', 'csv'): '6a7edc10dce035f25a531b0e8c5b04d989f47586baa3b8c2071838f00052232b',
    ('c2f2_mixed', 'bound', 'text'): '17ad9bb3358f1c3612ae3c2dc6569b5ff3e7a3310840fadcdbf34b4d18d12bb2',
    ('c2f2_mixed', 'bound', 'json'): '437acd2a90975a856bde9e0888961fc878827fba0edcb2091cccddd3e759abdf',
    ('c2f2_mixed', 'bound', 'csv'): 'c87c0a804e8f78b06664a9f5b95623af3199d0a11d3a9efd7cc586be8afa13e3',
    ('c2f2_mixed', 'sweep', 'text'): '7cdf3aa108ff91573b1c058bfac6cc567b1d79ae07f8c478b77f45b4285efdea',
    ('c2f2_mixed', 'sweep', 'json'): 'a55e5d86ef35b5e8eaefa9e6aaed6b82d2fbb7ddbc31df9cf867a16a5cf960da',
    ('c2f2_mixed', 'sweep', 'csv'): '80d39319d7aa073cf3f048db5f99889dad26a8abd22188a63e57b4c42f55f1d3',
    ('chord3', 'analyze', 'text'): '4c3c8fdf9324d5d284319cca6479a246a8d3b176b685fca15d6e2f1bd7c86d5d',
    ('chord3', 'analyze', 'json'): 'cc9a07fe5f2e80f80c7bedc344086538fd36a220a582e5c1120e1d9e3ee85248',
    ('chord3', 'analyze', 'csv'): '3dab7ea4d7413d3748adf4965446056d6a5f32dba25bd03afa0e1bdcc8566e5e',
    ('chord3', 'growth', 'text'): 'd96233aa361e7f7bfc0f8a7ce4660436a8f12edeaf984241e60e01d118804157',
    ('chord3', 'growth', 'json'): 'dfc8b56cf6b7846a300f69c1022979591422981164270c8a95014e19d7aa40bc',
    ('chord3', 'growth', 'csv'): 'bb4ff9ac4c7a43c2e3b1b348b47f515e34410984d22050d413d8512662c211a1',
    ('chord3', 'displacement', 'text'): 'abfab048475f15bde6ba2bdc1da8d6125ddf22414f849d6a885a1471206cbf00',
    ('chord3', 'displacement', 'json'): '6866b3411190a5613a8266bd63989768e4822f30b886a317d3192044a1eb3b62',
    ('chord3', 'displacement', 'csv'): '918c27258bec856062dea28385a59ed23801562f0be09f7c682a09bb9abccb7e',
    ('chord3', 'verify', 'text'): '2cee16a501f92039cd834f4b26aec02a86caf48500fed44ff054dc621c99c193',
    ('chord3', 'verify', 'json'): 'ce58e183326a1c3578dc68f828bac5f581d162385f992c07e5648fb4a4ee2247',
    ('chord3', 'verify', 'csv'): '528fa0b01094bb2298b1a1133c6ad89542965b49630c7913dd6d55d876c33475',
    ('chord3', 'bound', 'text'): 'fce1e7284d515d406ace4e8320808b8510f01c54c8d23d648b7e58a5121fe69c',
    ('chord3', 'bound', 'json'): '261fe3ab650ed6734dbedebf35693a42d8d57e144cb9ee905fe24081b9101a7c',
    ('chord3', 'bound', 'csv'): '1a0a396a40bdd83c9127d89ec267c1d5ff755d5e5668bd87b2d8c95023f63f24',
    ('chord3', 'sweep', 'text'): '3f6d5096044f88638b39be2eea936da36a3371725beda9dc84994ad84c4e848c',
    ('chord3', 'sweep', 'json'): 'd94d35b7ba66e2b76f2babeb7f670afd8f704c838c01af1653bdd9ff32c00963',
    ('chord3', 'sweep', 'csv'): '131b49afb5095f7b0ae8ad2fb2624708ef07321ef464aa872883974234aeea96',
    ('chord4', 'analyze', 'text'): '068c1145b6ae004ac451ada0568d7fce8d8e216cdf45c8a784afb7886539564a',
    ('chord4', 'analyze', 'json'): '7b939f5bd245b0deeda3317e6df4d25c857407bf97cb7082cf297ee492352de3',
    ('chord4', 'analyze', 'csv'): '58276278a6bcdebb9b8dc11dfedd2418f084bd29b7c3e9b1a8de4793ffa8d2e0',
    ('chord4', 'growth', 'text'): '104ad737a62b570fb2dfbe2a7bbabc7835992fc51091f077196e23478cca3209',
    ('chord4', 'growth', 'json'): '699f2ebb0915e21cb3e000a1a519fe7d8b77e48381b4cb69848884a58043df44',
    ('chord4', 'growth', 'csv'): '378c35fc468b054c932236c808aa72c9b14e6f8c7abb92817667cfe0b14b47d0',
    ('chord4', 'displacement', 'text'): '113421d58b3a4c92b6b44d9796a87b45d261682c534fe25ae43c86ca311934b2',
    ('chord4', 'displacement', 'json'): '7691985434334b3fd61466c58e59e4813031e314c0304065337a0e729e6824fa',
    ('chord4', 'displacement', 'csv'): 'b8e0f14bf2c757ee9ba2c5e277c338f25e34073b09fa96037279e78d40694425',
    ('chord4', 'verify', 'text'): 'dbd65ca2048d42529ed26b642bac7861f43df65fbeaf7158efaa81430d5a9de0',
    ('chord4', 'verify', 'json'): '868376f7e344c3ac476ea038d43b32e9219843b9ec3dc89f10f8141ad926e3a8',
    ('chord4', 'verify', 'csv'): '3ea8ce42f19c7e328d077a3dd787a64c3ea3f6e8376fd123d39b281b79534dbb',
    ('chord4', 'bound', 'text'): '542c9994ea434ae31c8b8501fe9fbe2c124441117247a1bb42c6191e56be2605',
    ('chord4', 'bound', 'json'): 'b40243a7b4cbe1df4cc51e2c5cc300941f3dc96bee79a3ceb7f422cda0090472',
    ('chord4', 'bound', 'csv'): '3251a752104fb28d0ec68da9b8c23ae25bd66fabb47ae03a5b56ca8f20a573d2',
    ('chord4', 'sweep', 'text'): '45ad4a11bf8a4c0daca1bef739d91462f6b8d78f6433ed4abe731e209582458d',
    ('chord4', 'sweep', 'json'): 'e969fab96947391753635be3ee836b0c6a56e4863abbf4b88256dcf9679ac676',
    ('chord4', 'sweep', 'csv'): '6d316a164a6242e732c6e7e73e9bb6db5f75618a478b96e87c54cce009d8e638',
    ('chord5', 'analyze', 'text'): '54ebdcdd1b394fce575b3e2511cd80a11a3504f4631d4a32a63eb1b83943d411',
    ('chord5', 'analyze', 'json'): '49cc425675e05c64b3734092da55e8f75de84c2e3cd80e7e47753607076d0d18',
    ('chord5', 'analyze', 'csv'): '3b5855a60f5ec5ed9b2261401c9d3c24bcd5f6325bfe328f321f87ed420dca76',
    ('chord5', 'growth', 'text'): '729772ba5da685e316038903b347bbc8d5149ef12c08606cc87da765dd6c65fb',
    ('chord5', 'growth', 'json'): '4ecc9f8b086ca95cc9315301d008729337194d4b0d14edc01a9ae2f45e1e8ca0',
    ('chord5', 'growth', 'csv'): 'e7ed0aaab71aafa4bcbc565cfa359c656edb7345450ec3a033ba5a6b29ce08fd',
    ('chord5', 'displacement', 'text'): '6445d65890fadcd1a71d804742fc6de9e038e71c308c9efcd96f39365d669185',
    ('chord5', 'displacement', 'json'): '32d11f56b96327bc1317de52d33993a0ba65b6f6f717b81ee8df51479f7fa6c4',
    ('chord5', 'displacement', 'csv'): '4800273ac2445677ab4c7911e181a84b48487ce13cf3e5f8ebd5a34704bfe168',
    ('chord5', 'verify', 'text'): '2a7d560a84cf0f42d24d84edda01c1eef8f8b6200c893cdf3a92b84f57cbd1bf',
    ('chord5', 'verify', 'json'): 'd3233bc607071a11d3430925d0a645c68c56b47adbb401ce9bfc28596341b336',
    ('chord5', 'verify', 'csv'): 'a08b9dc130ffb351af265211bf12084f913bae555e700718443fe91f2e4866bc',
    ('chord5', 'bound', 'text'): '58af6adc3fcecfafdd816afd87d81f1a40b64826d1526131d3f9f6e97384db8d',
    ('chord5', 'bound', 'json'): '8c2248b8ada9ba437787803f7f2a29dcfd86b1a048078e7e91803642bc2e7f99',
    ('chord5', 'bound', 'csv'): '629b799fedaab5b3da5126db41cf43be179c9162545fc495248062a55645783d',
    ('chord5', 'sweep', 'text'): '4cc49d61783a49af7d62408da6278f7c57ed130dc9746d11b9a4219daaa75c9d',
    ('chord5', 'sweep', 'json'): '71c8a34baec4f83e547de3ffc316b1aabe23fdd56273d7c61d60f49b760913e4',
    ('chord5', 'sweep', 'csv'): 'b60fdfe2217156fe555d65ca18e303e50c049a0ebe3706ade54c73e667976676',
    ('chord6', 'analyze', 'text'): '839e5cdb1814872e310bb97c030f5f25da552c66544f62fbd4d94de77b987f55',
    ('chord6', 'analyze', 'json'): '82348782c1c07e06c435d470f77d959c94c262639dc107c16eadeea2b02889c3',
    ('chord6', 'analyze', 'csv'): 'd1a85e43c4b61cb570e2d4e4cb7d414bfe4e58f7ec87b210366a9cfe05daf7f0',
    ('chord6', 'growth', 'text'): '8d39546a2e6c205a3ccc153905e43100a7c659d75cb91eb57e1bfc20c78482a8',
    ('chord6', 'growth', 'json'): '88abc24e7b0fa2b40169e5585bc180c33158ddf1c5639c1438d7f6f808a3b74a',
    ('chord6', 'growth', 'csv'): 'd8ff1e45da909a8509b939417178eb5dfa0c41908e7c0cbfdc5f7cfa367ab5c7',
    ('chord6', 'displacement', 'text'): '8c4dbfed352bdc95468b2a77c6517fe5c8c0959b5d854c765ba40f8993684318',
    ('chord6', 'displacement', 'json'): '7aaab0d5ce49a2d444b11fcb0cfbf1eb1292bd66b277555235aee2b12b6b96e7',
    ('chord6', 'displacement', 'csv'): '5ba2cf8d016a28da06931efb8a8fb186abcb5dfd4f5993cf38fbe76c0544e437',
    ('chord6', 'verify', 'text'): '65eadc2176f5b683cc12ed9cfb1ec79976ce3a96778a2c9a2181bcdb7e9b5482',
    ('chord6', 'verify', 'json'): '7351357ed5a0f13ed3d6d370229095bdbaefd724d4719af8dc67fb0f5e548eb9',
    ('chord6', 'verify', 'csv'): 'cc1f1dbe7a3967154207eee546cdf7d2039e7c428368ecf2f1e0ea75b4b42758',
    ('chord6', 'bound', 'text'): '794d065344da60a96ff9afc0f09788d319a7ef791d66fc1da8e29fd435fadd46',
    ('chord6', 'bound', 'json'): 'd414a5701813820aa8ffab881009c07fa6963195cdee4cbeb7dc0aaa67b8755f',
    ('chord6', 'bound', 'csv'): '1b078eb42be5c5ee8a9d54685d4197027c4d35f0d88dbb16576c0b15fd41977e',
    ('chord6', 'sweep', 'text'): '136b6ced90a9536b8c2fe25d623f7cff3ccb3ae790d6ea97b1524971c40f74ca',
    ('chord6', 'sweep', 'json'): 'cd5e829cb39a84168d69d4d6b75c0a0afc3b357d8d161c334e92d56492d79ed4',
    ('chord6', 'sweep', 'csv'): '29ec7ac723f95bd8a5e9ab5fa86cd90e223f341a68bd85ae5ee2970ae0c782f5',
    ('tower3', 'analyze', 'text'): '9fca9a0f4f1bc9242a5ab5bdcf50e73ccbf5cfee2f495f0e293449e0a6436e5c',
    ('tower3', 'analyze', 'json'): '497555a6f99d60312cd39bc0956c6c2a2d0c213a6eece14bf598dfc1295da95f',
    ('tower3', 'analyze', 'csv'): '5c9e051a671da77858039010e107a477a55202d8c2cd5462a52d4bb6c4c586ae',
    ('tower3', 'growth', 'text'): 'ad6477e7afe19a25e50fe9ef9539e97fa620d1af6e2b6aa2931202e1d23ee771',
    ('tower3', 'growth', 'json'): '80a46ea2052af76683fd38ed57b3c71ff3bd33a986e4825ecfd3b93df173669a',
    ('tower3', 'growth', 'csv'): '00446d7a10cbc9ea116792727e95f804da37933c5f74f08c6a8ac7c07aa0b509',
    ('tower3', 'displacement', 'text'): 'a93649e6f1025e65438f8d22db0d4d70d5ac7c0e960127374e8126ffd7717642',
    ('tower3', 'displacement', 'json'): 'b2e8ef77a4db3e943c486165adccc3863dee13483b88c7f31d3ae1ca8ba6955d',
    ('tower3', 'displacement', 'csv'): '53d790164f3665f626e73277a23aa67785ef7aecaa7707be7c873bef814d24c9',
    ('tower3', 'verify', 'text'): 'e504274e633bf1d2bea871ed0aab0b4d7d13bca96ec77c606fa7fcd967f3a948',
    ('tower3', 'verify', 'json'): '7a4b60b4530d1a5ecac1d70f9cbe51990e9990fea81719f182745ac517c9a3ea',
    ('tower3', 'verify', 'csv'): '39b7a0f143aead00b9e51132326d524a07b984cbb8383839307ca7bd93ce826b',
    ('tower3', 'bound', 'text'): 'cd749f5c7cc52a4a07dd4e282c004f99a482ddc4e175fbb0b4c78585c034277c',
    ('tower3', 'bound', 'json'): '4dbbe6ab2ef7d22ed271e5a03f9dda856b47bb5353120a537a783188bdc63552',
    ('tower3', 'bound', 'csv'): 'd5b3ff5ee34551978602362216eb6d64757f83156e0b1b74726b842e6c9d2ac1',
    ('tower3', 'sweep', 'text'): '6efbfed2c4793a5dac84e7a672b007a901b3b4beb26c443cc4c892c4f4274ca4',
    ('tower3', 'sweep', 'json'): 'd7ed854ca8486cb29a199021d19555208fbb6b7370a7d6e5bb0fb86bcb73dacf',
    ('tower3', 'sweep', 'csv'): 'bcf08409e88fdd8d376573ac9bed997233673a5c26f65a429cab256f625b9129',
    ('tower4', 'analyze', 'text'): 'c79c37a24c3f6a9ab5dfe8448f6fa4dc4f1238cc832a16331cdee3ed9e81b300',
    ('tower4', 'analyze', 'json'): '476c06cd31978871702704197c82c5a2971219f99ffc15eef5abeaf1fd213a72',
    ('tower4', 'analyze', 'csv'): '5c4edee932a3228515fddd46452c42bff673f659a67feb0329a638fcf09447f9',
    ('tower4', 'growth', 'text'): 'ad6477e7afe19a25e50fe9ef9539e97fa620d1af6e2b6aa2931202e1d23ee771',
    ('tower4', 'growth', 'json'): 'bc89e1243e772bcdb2a0630ede2b68051f57ded01151d0c84b96b93a1807c2b7',
    ('tower4', 'growth', 'csv'): '00446d7a10cbc9ea116792727e95f804da37933c5f74f08c6a8ac7c07aa0b509',
    ('tower4', 'displacement', 'text'): '4280ef56dda71af80f1db1d18e7833f80f673a9979519a2e51b5502eee136b94',
    ('tower4', 'displacement', 'json'): '6f77965982d62ce1afeeb9226fe63e3360553ed2770f5daa7d5771bb72b2e2ed',
    ('tower4', 'displacement', 'csv'): '53d790164f3665f626e73277a23aa67785ef7aecaa7707be7c873bef814d24c9',
    ('tower4', 'verify', 'text'): 'ce9257f06c16a96b629c12aec24f07699f06400dd17ff55e806df033a093fd1a',
    ('tower4', 'verify', 'json'): 'ee449ba0a40d90ddaf5b83cb6b585cf7095f5482d0ceb121ca5181d24a636898',
    ('tower4', 'verify', 'csv'): 'dc34aebdd3433c7551378a63b642612160fb9e50002b180bc48464f78597c558',
    ('tower4', 'bound', 'text'): '12f33abd8e745a780fd9ee6f66650ed921b8b45e81d25d128d8da07d5b40b9fa',
    ('tower4', 'bound', 'json'): '11c1cc8eec8a1e86477102088a14f60b4b07816ce2f91780ea3b0f4fb1437a1c',
    ('tower4', 'bound', 'csv'): 'd96cbeec58ece8eaf12305eee509a251302a0bf532764a938bf048a6f359aaf6',
    ('tower4', 'sweep', 'text'): '6efbfed2c4793a5dac84e7a672b007a901b3b4beb26c443cc4c892c4f4274ca4',
    ('tower4', 'sweep', 'json'): 'c66b697e71886181f09402cd53ebb7dbe6883c4a5e5b441341139e1fd4f4a898',
    ('tower4', 'sweep', 'csv'): 'bcf08409e88fdd8d376573ac9bed997233673a5c26f65a429cab256f625b9129',
    ('tower5', 'analyze', 'text'): '2562a612ab7b50fa23b301d59bd5a7227f4ea622d6cedd3d4a7db00170600223',
    ('tower5', 'analyze', 'json'): 'b74f57e8401c776301a3b15c76890dc98dbc4bac64c5903e3ebdc1190afe0579',
    ('tower5', 'analyze', 'csv'): '26ae244a10096f04bf8dbad53672bedb03c45ab0de07fe288017bc03bfee9410',
    ('tower5', 'growth', 'text'): 'ad6477e7afe19a25e50fe9ef9539e97fa620d1af6e2b6aa2931202e1d23ee771',
    ('tower5', 'growth', 'json'): 'f1d96af452d18be90f09089c0242dd9ea8d173fd688628026473063f8cc1860c',
    ('tower5', 'growth', 'csv'): '00446d7a10cbc9ea116792727e95f804da37933c5f74f08c6a8ac7c07aa0b509',
    ('tower5', 'displacement', 'text'): '843e7442b7789892861fa7cbfc9d4dafbdbd9d4fbce91a96017a07237d1a61bf',
    ('tower5', 'displacement', 'json'): 'd810371100375d59c133173e86a53ef7e89ca7330069ac89bdc1346a95f2dec0',
    ('tower5', 'displacement', 'csv'): '53d790164f3665f626e73277a23aa67785ef7aecaa7707be7c873bef814d24c9',
    ('tower5', 'verify', 'text'): 'ecb0e0545973fe630615bd7725e950a640de79f39332b8a01091cea8c29cf4e7',
    ('tower5', 'verify', 'json'): '304ed686d36463d66411f10240754dab41fe942a33f0b9d144b1bee70f9da5ec',
    ('tower5', 'verify', 'csv'): '891c2b17871766e37f28318c535d1bac28c2f8c32e604acafca8a5ed8b78e8a2',
    ('tower5', 'bound', 'text'): '342250ef08ab8d2dafcb572310c71021ee36b519f53d7c1360ca1b802933f6fa',
    ('tower5', 'bound', 'json'): '24d133add2a836acabab93b4b0775e1026fbc2af05ce20f35c1394b3eeb2ee6c',
    ('tower5', 'bound', 'csv'): '346596b58692c3276b6e1b74fba12889c593c95b34d17d43bc81732a0a25c5e8',
    ('tower5', 'sweep', 'text'): '6efbfed2c4793a5dac84e7a672b007a901b3b4beb26c443cc4c892c4f4274ca4',
    ('tower5', 'sweep', 'json'): 'a15e222777d2ccca5300caf14792775ddffe70c47476ec94daf978d866c697a5',
    ('tower5', 'sweep', 'csv'): 'bcf08409e88fdd8d376573ac9bed997233673a5c26f65a429cab256f625b9129',
    ('tower6', 'analyze', 'text'): '56a726455b14796b977bcaf97d764f19dd698d6a7f60ca0fa0666d39161c1fa0',
    ('tower6', 'analyze', 'json'): 'e843b057866f1f0af6be8491c099bb26717271931ce24e4b2bcaacf474e009f6',
    ('tower6', 'analyze', 'csv'): '0c442593024878daea56738ff24f432db2d6fec28fdbdea91fd40e691d1cc963',
    ('tower6', 'growth', 'text'): 'ad6477e7afe19a25e50fe9ef9539e97fa620d1af6e2b6aa2931202e1d23ee771',
    ('tower6', 'growth', 'json'): '54a3b589e1bca11119dc83fc1260c6cc9aaa8874fb9bd85f5e9f2e38531c49a9',
    ('tower6', 'growth', 'csv'): '00446d7a10cbc9ea116792727e95f804da37933c5f74f08c6a8ac7c07aa0b509',
    ('tower6', 'displacement', 'text'): '2a542f74882409d74738e9010ca2dda826622cfdd441ecbba320a679e782e60c',
    ('tower6', 'displacement', 'json'): '67684d303643baf6c7cb2f2b0b109da62e49f704f4b289ea644adff168896298',
    ('tower6', 'displacement', 'csv'): '53d790164f3665f626e73277a23aa67785ef7aecaa7707be7c873bef814d24c9',
    ('tower6', 'verify', 'text'): '196525d819278e0aee589dd5e314a4e9fbd5dbf7f095295a46069c1c68bbbd8a',
    ('tower6', 'verify', 'json'): '9a06fdd28871eb8831d13e4a7586fd7f2e804459b6ceab26aef140da0a77c24f',
    ('tower6', 'verify', 'csv'): '8f7b9b05fc6b8c390d6a9f173f8f37183a20d8e8dbd225a9bafcab31c51e8fef',
    ('tower6', 'bound', 'text'): '30cba0fa26191e4c6e742107aad1977f70f24b4f51b4cc05b2c48dca4dff34cc',
    ('tower6', 'bound', 'json'): '0d5fb40d76a8c9ce575cbdb10fe6288dbfa72f22d246c4ebc3ee8697d7f6c74d',
    ('tower6', 'bound', 'csv'): 'bb4945aac7919aae276dbd64ab78c6db627e4d721cc8d5d3670a36adcb632ef4',
    ('tower6', 'sweep', 'text'): '6efbfed2c4793a5dac84e7a672b007a901b3b4beb26c443cc4c892c4f4274ca4',
    ('tower6', 'sweep', 'json'): '41435defa0e3050e498006c260e069b971953608098db47c77ac112dd0ef51db',
    ('tower6', 'sweep', 'csv'): 'bcf08409e88fdd8d376573ac9bed997233673a5c26f65a429cab256f625b9129',
}


def output_digest(directory: Path, doc: str, command: str, fmt: str) -> str:
    """sha256 of one command's exit code, stdout and stderr."""
    if doc in GENERATED:
        path = directory / f"{doc}.gog"
        if not path.exists():
            path.write_text(GENERATED[doc])
        source = str(path)
    else:
        source = doc
    options = [ELEMENTS[doc] if x is None else x for x in COMMANDS[command]]
    result = CliRunner().invoke(main, [command, source, *options, "--format", fmt])
    data = f"{result.exit_code}\n".encode() + result.stdout_bytes + b"\0" + result.stderr_bytes
    return hashlib.sha256(data).hexdigest()


CASES = [(doc, command, fmt) for doc in ELEMENTS for command in COMMANDS for fmt in FORMATS]


@pytest.mark.parametrize("doc", list(ELEMENTS))
def test_output_digests(tmp_path, doc):
    got = {(doc, c, f): output_digest(tmp_path, doc, c, f) for c in COMMANDS for f in FORMATS}
    assert got == {key: DIGESTS[key] for key in got}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("DIGESTS = {")
        for case in CASES:
            print(f"    {case!r}: {output_digest(Path(tmp), *case)!r},")
        print("}")
