"""Byte-stable stdout and exit codes of representative CLI calls.

Each digest is the sha256 of the call's stdout, recorded at commit 29093ca;
the two `genclasses` calls on M11 with `--format json` at 5320b59; the
`chartab` calls on A9 and L2:49, whose eigenspace splits take many steps and
give irrational characters, at 1ca8ecd; the `classes` calls on M12 and L2:32,
whose conjugation orbits are closed under a generating pair instead of the
group's 3 and 10 generators, at 124ab09; the `group` calls on L3:5 and M12,
whose base and strong generator count come from the Schreier-vector chain
worked top level first, when that chain replaced the recursive one; the
`group` calls on L2:49, L2:32 and L2:27, whose fields are not prime and whose
generators interleave the two transvection kinds, at 8a16018, before one
builder replaced the separate PSL2 and PSL3 constructions; the `classes`
call on A8, whose class walk finds its last class latest of the groups
measured (at 14% of the group), and the `chartab` call on L3:3, whose
eigenspace split changes order, at 20e747e, before the walk stopped once its
classes cover the group and the split took the cheapest class matrices first;
the `genclasses search` calls on A8, L2:25 and L2:49, whose class pairs fall
into many Galois orbits (L2:49 most of all: 351 class pairs, 66 orbits), at
cd41268, before each orbit was decided by one scan and the stabilizer chain
moved to image bytes; the `beauville search` calls on L3:5 and on L2:49 with
`--seed 5`, which decide many class types (L3:5 scans 435 class pairs in 113
Galois orbits), at 986d200, before the class-type table was folded by the
Galois action and the witness search read product classes from one row per
class pair; the `classes` calls on L3:5, M11 and A7, whose groups have
classes that are not real (C != C^-1), at 666cf4c, before the class walk
entered each conjugate's inverse and so found a class and its inverse class
in one walk; the `charbound` and `pointcount` calls on L3:3 and the
`struct --method formula` call on L2:7, which reach the structure constants
and the regular semisimple classes, at 1b08872, before those functions read
the class data off the group and returned plain integers; the
`genclasses verify` calls on L3:3 (13d, 13a) and M11 (6a, 8a), whose classes
D are stable under powers d -> d^l and whose counterexamples come at
pairs_tested 132 and 91, and the `beauville search` call on M11 at seed 0,
whose search makes 2,350 generation tests, at ecb1f95, before a
generating test also covered the conjugates of the powers d^l in D and a
failed witness test skipped the rest of its <x>-conjugation orbit; the
`beauville search` calls on M11 with `--budget 50`, where types with
|C2| <= 50 and types past the budget take different paths, and on A9, whose
search shuffled the candidates of 65 types, at ee37c88, before a type
without a witness was decided with no shuffle and the class-type counts
were read off the same-side half of the class-pair scans; the `charbound`
call on L2:8 with `--format json`, whose float maxima are printed in full,
and the `struct --method both` call on L3:3 (13a, 13b, 8a), at 68ea609,
before the character table read its class labels, sizes and orders from the
group's class map; the `pointcount` call on L3:5 (31a, 31a, 31b) and the
`beauville search` calls on S5 (a certificate) and S4 (none exhausted), at
419662e, with a hyperbolicity flag that was then optional and changed
neither output, before the point count read T from the class
map instead of the character formula and the search and its verifier read
sigma sets, orders and hyperbolicity off class types.  The `beauville
search` digests held when the Riemann-Hurwitz bound (c(x) + c(y) + c(xy) <=
n + 2 for a transitive pair, c counting cycles) replaced the natural-order
pass and the product-class rows: each type the bound does not refuse takes
one seeded shuffled walk that reads the class of y * x per position, and a
refused type is charged the pair tests that walk would make.
The `chartab` calls on A8 and M11, whose non-real characters are split from
their conjugates, at d29413f, before each conjugate pair was split by row
orthogonality instead of by the class matrices of non-real classes.
The `classes` calls on A9, A10, S8, L2:25 and L2:49, whose walks start from
other elements once the draws cross the cosets of the first base point's
stabilizer (A10 draws 184,651 elements before its last class), at 90e71c0,
before that draw order replaced the one with the stabilizer element fastest.
A refactor that changes any byte of these outputs (a certificate, a class
label, a character value, a count) fails here.
"""

import hashlib

import pytest

from bvl.cli import run

GOLDEN = [
    ("group --group L3:5 --format json",
     0, "b998a63703264c740ae2626a4a459c16c8a1bcabff624f69577afccd5a5069b9"),
    ("group --group L2:49 --format json",
     0, "b3ec10c936e35c2da95ee0972047027e45bd55ebf7dcb740e8753a1ac7edca64"),
    ("group --group L2:32 --format json",
     0, "6d016d6deece4c16a4e00fa62bca52e84a99adfaf2c20286c6d1cef482912f51"),
    ("group --group L2:27 --format json",
     0, "0d865db9861496429a5731219c662ab603d848b1b8ea6d2aa3d4a8e9b1250cd1"),
    ("group --group file:m12.json --format json",
     0, "f94da8fa7cb5e200d4eaceb44fe0ace28e88ef136bb895635e3a331405088f61"),
    ("chartab --group file:m12.json --format json",
     0, "a477de581aca778214a44e69534375a9ea9abcb4726c4c792307a7a5222832ae"),
    ("chartab --group A9 --format json",
     0, "560bb03deeca627d4b5f4d2f3f19cdd088154038a289e67c4b7dce333906863c"),
    ("chartab --group L2:49 --format json",
     0, "d4897f18afcd0c6290a55681ab87af236b41d90fe7e9f3d52a8bbdbc8edcdb77"),
    ("chartab --group A8 --format json",
     0, "474fe9e9a538d152c8659ed972ef54be6035fdbe00b2bb165ee381825f7d3da4"),
    ("chartab --group file:m11.json --format json",
     0, "7a4d1558658b44f9d48c5c895533a4a24dfc48cdec0fe44541cfb5b13c959518"),
    ("classes --group file:m12.json --format json",
     0, "47f3d79f316005c311def01a374a97f3a3dd409dd7b38c90b1bc507ef18e967b"),
    ("classes --group L2:32 --format json",
     0, "4f4a25ea0c87041d1a84da06b6e48504237a94380b503d5d84be60d8f5ba77de"),
    ("classes --group A8 --format json",
     0, "e30ac40c83fe8a2f9e478c432e8db70d0dbec68b9dae08aad8f0f80771454056"),
    ("classes --group L3:5 --format json",
     0, "ea8f43ff9a6875115bd30f8967a3514c5098a6d38e4cfcd4becf4b4bb473f91d"),
    ("classes --group file:m11.json --format json",
     0, "f50d280e32a635a6f23b3b9b0c7d17ab8fd5147acaa285788379e4d05af83537"),
    ("classes --group A7 --format json",
     0, "b32b5dc2dc63cac152eed846cb29ebc909cfc71e8b56a435c35f5e40e0ee7c39"),
    ("classes --group A9 --format json",
     0, "14d95e1f0cad77d07ccced2f526e370db65acc72d4c47fddeaa8d353ba051460"),
    ("classes --group A10 --format json",
     0, "a50973f778abf8bcf38bd273e79bc3f2d6bb4f16fac67c708708e425a87dc35d"),
    ("classes --group S8 --format json",
     0, "37dde1697c550762fdaa8bdddf9e80c9b6d86efbb1ce2abf114f494cd2c7f05c"),
    ("classes --group L2:25 --format json",
     0, "2654dc94d1cc697a3c9ee069ad9679582bfd01419d6e6f84a2f282a5243a1967"),
    ("classes --group L2:49 --format json",
     0, "2f4a67614fe7e0895dac51981314b9ca4fc12bf60cb11b64320fd74088ba364c"),
    ("chartab --group L3:3 --format json",
     0, "7084bf9c5743a49d7db47978e3e4f219d99e99a7f5220e35c77418a6743fa9b0"),
    ("beauville search --group L2:25 --format json --seed 3",
     0, "07e7198a890002136d7194450732995938d1af5ff60f7e981161fe2ecfcc853f"),
    ("beauville search --group L2:25 --format json --seed 7 --strategy exhaustive",
     0, "213bb1fe74f2b86cab49bf4bea7b66ba83675cb27831dec1e14d3a2f77afad70"),
    ("beauville search --group A6 --format json",
     0, "767356afa5b1ac8a2c679e82bf77ad39c3f5e4fa6d5d04c9892a43fbf0e8c5c2"),
    ("beauville search --group L3:5 --format json",
     0, "f2a6afa33143225ef5362aa1c766d2e409b9d38eb48f5875e295e8407c825497"),
    ("beauville search --group L2:49 --format json --seed 5",
     0, "e9a9539ddeac403b241f8976cbbd67075963431fdade4afcbbe76117ae2ec2c9"),
    ("beauville search --group A5 --format json",
     1, "46625f3c4dac8bd6e982890ef67ac251209f278cfd7e63d7ef5c34bb9f864c8a"),
    ("struct --group A6 --classes 5a,5b,4a --method both",
     0, "3382a2be658e7c710a65bfc3a6ed6998b01041f009c7764dbb5540540c8a802f"),
    ("struct --group file:m11.json --classes 11a,8a,5a --method both",
     0, "d4c4fb30cb51e48f6bbed958cc404a745adf5dc95c1c2deba8c549180c95c638"),
    ("struct --group L2:7 --classes 2a,3a,7a --method formula",
     0, "8ae34c3bcbbc3f4cbf1f993dea81081d1dbfe93e7168ffbb4bcc807a2091f3f0"),
    # text output: the 6-decimal display of each max |chi|
    ("charbound --group L3:3",
     0, "852960372927223913974e9d8139e3f78a05b8cf4864c14d12728e685abe0192"),
    ("pointcount --group L3:3 --classes 13a,13a,13b --format json",
     0, "34ec88f6b38105396e7331765caf4e5eeabbb35cc180d3454a96245ecd2783f0"),
    ("genclasses verify --group file:m11.json --c 11a --d 8a",
     0, "ddb21c699be71aa2d9b2e9a615172495fc08c0a4a818a0256db1e907ed3f80ea"),
    ("genclasses search --group file:m11.json --format json",
     0, "a28b0be10236b6b5ac2198db754b24d6cc79686783b4509132c224998156f889"),
    ("genclasses search --group A8 --format json",
     0, "895c5e3cdcd6ce3195e8aeeb6ddaebe9ed8ec17959664f7768700214081ae707"),
    ("genclasses search --group L2:25 --format json",
     0, "aa790b0c80b1640805461a9e7e9dce0714aa2ae8c670dbf0b2a721f4ed850407"),
    ("genclasses search --group L2:49 --format json",
     0, "6f2b3ed63f93a1293ca01ae1449a2940a75924ad5b5ff32f13228b2a88ccc418"),
    # a counterexample at pairs_tested 11: skipping covered pairs must keep it
    ("genclasses verify --group file:m11.json --c 2a --d 11a --format json",
     1, "d4c6ef652a3e5b3dc879ab114cdc68e692fc3ba3e1c2fbc0e0d748951a58739c"),
    ("genclasses verify --group L3:3 --c 13d --d 13a --format json",
     1, "1c852fa4977a3d64a83dd36e5d9bc0adb244154d6e8e2ee43ca86a25582fac32"),
    ("genclasses verify --group file:m11.json --c 6a --d 8a --format json",
     1, "5e142866f8226db36a2d93afbb5aa961328b716f3b4832fe7e45a767a3e5d6c0"),
    ("beauville search --group file:m11.json --format json --seed 0",
     0, "1196e0cb5a214f1ec86237be99b75519ecbbd5d3b66e37fdd2a38756588b13d7"),
    ("beauville search --group file:m11.json --format json --seed 0 --budget 50",
     0, "18ec577a092d808f02aec2c57d7f62c5400ce274b0f27df8faba1cd96ef52f59"),
    ("beauville search --group A9 --format json --seed 0",
     0, "e7b6c636c0cde767d5d4a97cd77928860ddef54bbab8db716c1a2a6ea5649592"),
    ("charbound --group L2:8 --format json",
     0, "842acba4a50455ef9e435a568b95bf635a2b7b76ee85f25fa45b6d456b54cef5"),
    ("struct --group L3:3 --classes 13a,13b,8a --method both --format json",
     0, "61f5b7e7d297dec635535178ee793e5a03fd3a05230d1f8a7eabc72d17f0c321"),
    ("pointcount --group L3:5 --classes 31a,31a,31b --format json",
     0, "6f0393c75bb66e04cb4f4ef4bee5adc6994b8948a970dd06443fc1d55864e439"),
    ("beauville search --group S5 --format json",
     0, "e1ad66a919f2405ea01a21902aa719d512d3d4ade729333365259a8e66337c22"),
    ("beauville search --group S4 --format json",
     1, "0261e6e978c73e947c3cc363f6d8dfe5eb0ef96b8448980b8229c910ca530ea7"),
]


@pytest.mark.parametrize("argv,exit_code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_output_is_byte_stable(argv, exit_code, digest, capsys):
    code = run(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)
