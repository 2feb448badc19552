"""Answers recorded from the program, checked on every run (the answer gate).

The counts are independent of the seed.  ``SHEAF_CENSUS`` holds, per
graph and automorphism class of orbit representatives (the seed only
picks the member), the number of semistable classes and how many of them
are polystable and stable.  ``CLI_SHA256`` holds the sha256
of each orbits CLI task's stdout; ``SCAN`` the digest of the whole
qdeg-scan output and the first 16 hex digits of each report line's
digest.  ``KNOWN_FAILURES`` lists tasks that fail at the recorded commit,
with the exception type and the function that raises it: on K5 some
degeneracy subsets realized by orbits do not decompose uniquely into
minimal elements (e.g. {1,2,3,4} = {1,2}+{3,4} = {1,3}+{2,4}), and
``posets.minimal_elements`` raises.  They are counted as failed tasks.
"""

KNOWN_FAILURES = {
    "cli/K5/enum-deg": ("AssertionError", "minimal_elements"),
    "cli/K5/poset": ("AssertionError", "minimal_elements"),
}

PROBE = {'cli': (0, '76b8ba5fda9a2c88c13bb2240396db70fefebb468a4187325d3d374ce8f76236'),
 'graphenum': 3,
 'limits': ((1, -1), 2, True),
 'polarization': True,
 'posets': (3, 2, (0, 0), 2, 2, 2, 1, 2),
 'sheaves': (10, 4, 3, 6),
 'stability': (True, True, 2, 3)}

SHEAF_CENSUS = {
    ("banana", 0): (10, 4, 3), ("banana", 1): (4, 4, 4),
    ("K4", 0): (183, 99, 93), ("K4", 1): (128, 128, 128), ("K4", 2): (298, 72, 62),
    ("K4", 3): (182, 92, 89), ("K4", 4): (164, 104, 102), ("K4", 5): (146, 116, 115),
    ("K4", 6): (128, 128, 128), ("K4", 7): (128, 128, 128), ("K4", 8): (183, 99, 93),
    ("K4", 9): (750, 44, 29), ("K4", 10): (128, 128, 128),
    ("C5", 0): (53, 15, 7), ("C5", 1): (23, 11, 8), ("C5", 2): (16, 10, 9),
    ("C5", 3): (136, 18, 7), ("C5", 4): (42, 12, 8), ("C5", 5): (10, 10, 10),
    ("C5", 6): (462, 32, 6),
}

CLI_SHA256 = {('C5', 'enum-deg'): 'f2e3ef92dd47b8863d8a8ddafc739bfca531cb54448c7901aef1e14744816515',
 ('C5', 'enum-orbits'): 'a6ecd8a8d41f6cd7e96cef45ab4e9e0d04c78d1b1f071b61635c35f17b56e673',
 ('C5', 'poset'): 'a18c04f693c3e1c3703cb3e0526e5a20714b689295ead82b829b81400c6a57cd',
 ('C6', 'enum-deg'): '6dc7a61003bfa637b5b6b1c152f7a3fd2a2132bb1e0765bdf2f1ad6b3a67abaf',
 ('C6', 'enum-orbits'): '4aa4f0cfd3d8cd6d92f399b36b5a4012389ee3f05841ed1138c0319e099479a3',
 ('C6', 'poset'): 'b9278161c8bbbe638b0fb1b98aba893cec098af66808937ac5430d7db6ec0d34',
 ('K4', 'enum-deg'): 'e19e4b889321220a171f57ffd89e3e8892a69dff213384554bd575a1567a3950',
 ('K4', 'enum-orbits'): 'b69a24c47f11b83c9692b8567d104d9d5060ab8a441f22dcaa02cc0c13ccab71',
 ('K4', 'poset'): '6dc592211bf65880214679c6ebf92d4bebe809c0ee66db808e417a5e409560da',
 ('K4p2', 'enum-deg'): 'f269e8ebe1c9da71bd7c0d9e2e227db2405dd5acba0e8be6c8e118dddcd8d9a3',
 ('K4p2', 'enum-orbits'): 'eff7cbadb188ed127f98f80b7353d0dcb28cf8aa1ff906554066891440f49f55',
 ('K4p2', 'poset'): '97a689330208268c2fe495b7d4b0b2f4e934908e3f5c5857e6fc704e52443b7b',
 ('K5', 'enum-orbits'): 'bcafc7277471c7a12812dbc0526acf6a99cad6bcc2237c328a815c3f170805c7',
 ('banana', 'enum-deg'): '9b2cb861c030dbae5fbbcdd11a058cc3dbbde226850e4121e4d4b3245447bff2',
 ('banana', 'enum-orbits'): '14cba7a11843f966d178b73dac528d05bdc28a5be260d9a0605df4399e76ed45',
 ('banana', 'poset'): 'f2ec4f39c2702140bcb7af7eba53ec1d4d5ad38dfc0cbbd0c78ece94be467ae3'}

ORBIT_COUNTS = {'deg-subsets': {'C5': 52, 'C6': 203, 'K4': 19, 'K4p2': 76, 'K5': 137, 'banana': 2},
 'dominance': {'C5': 358, 'C6': 2471, 'K4': 83, 'K4p2': 747, 'K5': 1263, 'banana': 3},
 'orbits': {'C5': 150, 'C6': 1082, 'K4': 44, 'K4p2': 176, 'K5': 1100, 'banana': 2},
 'window': {'C5': 1697, 'C6': 24483, 'K4': 291, 'K4p2': 2619, 'K5': 16321, 'banana': 3}}

SCAN = {'full': {'lines': ['7b47fd7e0095a52d', '032580fbb4cb818c', '90a8631485b63d21', '231c094c06aca4c3',
                    'a2970f8163e7ea91', '68bf1a72234bca14', '716ea2c70c76743f', '3303dae2fea0714d',
                    '3aafbc2873b7399e', 'a44f8c345b23983d', 'b7c76e8c30183ed2', '06ba76204bb69107',
                    'b9f42ecf937abffc', '9ff98767671df532', '04653390192fc6c4', '5165c518437f1bc8',
                    '366b1715f4a02f22', 'c87bb06ce1e61606', 'a29e3cda1bde7314', '2aa8c76fc9c2f89a',
                    '57c338c507860038', '02325935cbec915e', '9acc350ee5406553', 'f510e6b62c497bc3',
                    '599603d35260fb4d', '3dc7ef655fdc96e6', '1c9efb6a2536f9bb', 'd1a248a8689159c3',
                    '7b01fc48f19a92a6', '7faa989b8d85dfff', '05def431031f8958', 'e67c9519d501dc19',
                    '76014c82ac6cde4e', '0222486854d76f3b', '55d3a93e66d66fbe', '4e774c0138e72fc4',
                    '7fd47c362c011913', '1e88e2e4cf06ad2c', '1f020b663194ef69', 'd3fb2477694a23e7',
                    '458c3dacba404b78', '25dd5ac41a75ffbd', 'a556356a4b0d539e', '5c9e121a30987cba',
                    '4a3b837d81df9839', '05c8a06ce5582268', 'b195b42020a8e042', '2c87e8950379af16',
                    'dd511f615db586dc', '1ddac7b643459039', 'a0b301bbb162870d', '3183d93fa505b05b',
                    'b59f876c2c101304', 'e37771394e72795f', '3ef661417db709f8', 'c2d3e4e844e882d2',
                    'a674a97f77fc93a0', '5e2c5818da038eb9', 'aaf567ddca6c1a54', 'e7d0b4a39fc6764f',
                    '6c3ee6b106b1536f', '6d8a232dfbf5acaa', '2c63b2a5832961a8', 'b711fc9e674105fb',
                    '9990cab4b46440ef', '9cc4a7e5c141833c', '78d7e01697a7ed7d', '803c56883e3da6f5',
                    '0da7e95feeaf408b', 'a6af8451f92cd830', 'aa307a558fdd0d51', '0c3f0b18b73a663c',
                    '447ef46e3940f778', '53266607ff2a1521', '2d5a4792b7fe3762', '7989fe0f7df82032',
                    '9d26606c19571067', '9a38c6dedb888ab9', '1740353ef8ebfdca', 'cae338620cd8c5d7',
                    '0aa5bab55b72d992', 'a37f9e3a5f2a76d9', '1ff2544c1a26eda1', 'ef9d1ffd49b22b33',
                    '134b38c6cb9401dc', '0e192a4f424c7671', 'a9d733d9ef6e620e', '1cf0b3d313d0dcff',
                    'ca2309000d9313c8', 'a64dde6271a5a1ea', 'ab355ed9c5145c76', 'c995866bf362028a',
                    '9e10b631263f31ff', '39e70e2f577171bb', 'fa1b0d2d732b98e8', 'd3e7376a4008861d',
                    '92ba3e8557b86018', '01f3de1d18725669', '05eac673b368e43f', '8c69082d50bfbd09',
                    '98e5379e33b8dd29', '377c747cd230a11d', '439656ca7e222e03', 'e30e6e427f96963a',
                    '8c3da17f116e20e1', '54b2c9826d73cb92', '16d2d0ef37fa1176', '5839fbe92c5bd2e9',
                    '0138a01523bc7acf', '33134ad3ec972204', '3ce55047a18eadc2', '76f8c3db1b1c8e0b',
                    '68eaade8d1342f36', '744bb83f1558b01e', 'b7858977709bda60', '5d128a9b609e7f71',
                    'ed2451cd4320db85', 'f3415a7a68323466', '8740844c0749db33', '7611603a75cff4c1',
                    'c205eb08faba38f6', 'aa610d07b5ece306', '71538f105f4867a9', 'ca8d94f049f86932',
                    'e2b3514d6fcf0744', 'c90931004579a95c', 'cb080794c00c6b52', 'ad8b3e0f32e62642',
                    '72327c4598917cb6', '284e0343b443ffdb', 'f9289e434215eb43', '945fbb43c31935ab',
                    'ea69f9cf1921a80b', '021b9039d0a18ad9', '1a93518204c07b50', 'facc1e0e4184fc5d',
                    '8fcf3f6800d4cd14', '11c20f06c5524b6f', '85e69320fbe62922', 'fc7f352ebb6da3d4',
                    '3c5de539545eeb87', '8009f01ad258f806', '803595651a3dd7e5', '70fa377a7092380a',
                    'c0fcb232ce92b27d', '4378b9710391ecd9', '30f41cdd57179884', 'c5757b623b74f62c',
                    '1bd37c772f493581', '796abc8ba4b07810', 'd668c6addbfb49bc', 'ab2872a6ec1bb6a8',
                    '54c7a898faed6f9b', 'c61b483b15eef726', '01c7a27d0c5a8a3c', '5fd238feb74f1882',
                    '89c4c711e1848365', '7d99844af5d53cfe', '8645a84cc9d9b60d', '4255a1493964ae82',
                    'b9dcece9c384bfba', '4b4ca5f0ee661642', 'f5b4cff43064e462', '21ad2a3448c3b9e4',
                    '437aae68b745d488', 'a5958155c641e82d', 'cc122e48c7856b09', '398e3b49e2671f25',
                    'f39a7c47db22225e', '5247f0bb5248f710', 'b32005849ebcc06e', 'd6e25ff160f1842a',
                    'b71f4463394efbe8', 'f703c05fc95773f7', '9077146ca561dc70', '50dc0afb21f877d2',
                    '1937f162b426a00f', '838d6549cd5e87ac', 'd6ca150486bd5545', 'c2baab493ae6c112',
                    '246887f831f86270', '448d67818b5c6ae0', 'd9fc1551dcff754f', '6d7ba52f30b22841',
                    '1aa03be7e404d733', 'd01596ead6aac0e3', '5d37ce1251385fae', '6b871fedea4a3be7',
                    'ab2ff7ce29e48d97', 'c9171309f29c01f2', 'a78d57c1dbd2f652', 'c046a340a13354e3',
                    '190844d4889e56ed', '25e3080eaed3051a', '4f172e94a68ba69c', 'da42b66e7fda2b4e',
                    '36073994c54eb1ee', 'cf101fd240b2d249', '2e30e261336f0ce3', 'bd77e66e13af8ba4',
                    'c98dc0970997859e', '8794a81ebb5195c6', 'bd774ee6021b01eb', '2a80ceb4918bb8e7',
                    '822f984f1b6c5fff', '8c28d1e00cadf325', 'e6ce2ed7f932904a', '31ed3e836028cf33',
                    '3532899ff99b6859', 'e8c0d43cc61c1a22', 'dc2e7674f4c52b77', '1a5705d15ab0057b',
                    '009c098063f6f1e3', '27ac5f2c943e560a', '703db11b2091d664', '414cdfbfa2385527',
                    '73511c28055f264e', '43a794ecaf20f176', 'd461a0a940be6866', '16a232bd9628ff2a',
                    '763f67373b851e9a', 'c943c4702489065d', 'db71e2cf0e0abacb', 'c548a8192cb3787f',
                    'c48c01d4f5ff97cd', '1eaf4112a73f8a77', '6ff85ef7ce9241d8', '90557f5f7bd2610a',
                    '15c9c42fa5d4299f', '8175a936778e8369', '0ce1f95deea931a4', '9637f8a53eafb805',
                    '98003654e09bbfdf', '93ce8595a3f97f6b', '9d35e582b175aab2', '2ff078b5d357d4f9',
                    '1b87b77e72e2e780', '24776f5dd4e210a9', '70472f29c8a70d78', 'fd364fa51fe992ab',
                    '264a902789f1bbc4'],
          'sha256': '4de4db755bebb0b0190e76d49e284ff02916a5dd27e0f3127755c5aee3b8d54f'},
 'small': {'lines': ['7b47fd7e0095a52d', '032580fbb4cb818c', '90a8631485b63d21', '231c094c06aca4c3',
                     'a2970f8163e7ea91', '3aafbc2873b7399e', 'a44f8c345b23983d', 'b7c76e8c30183ed2',
                     '06ba76204bb69107', 'b9f42ecf937abffc', '9ff98767671df532'],
           'sha256': '9a4ac905ae931546f25d9833d27e7512ffa09eef62a7a7f82455a809048ddbdf'}}

