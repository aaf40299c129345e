package machine_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"pckpt/internal/goldentest"
	"pckpt/internal/machine"
	"pckpt/internal/rng"
	"pckpt/internal/scenario"
)

// dispatchRow pins one machine run: the events its engine dispatched and
// the SHA-256 of its Result printed with %+v.
type dispatchRow struct {
	name       string
	seed       uint64
	dispatched uint64
	sha256     string
}

// dispatchTable was recorded from the runs dispatchCases lists while
// every machine timer — each flow's completion, each fault edge, each
// injector delivery — was a heap event of its own. An alarm fires where
// its heap event did, so the counts and the results hold row for row.
var dispatchTable = []dispatchRow{
	{"machine-degraded", 1, 3436, "c425b3f182210aafff346ba9060a8c1cacb48764ad3a2386e21c8edcfa400c03"},
	{"machine-degraded", 2, 2408, "1c0eb72dec32138f3179be973b270f113d79a24fe4c52f98d00d4827f7f9d978"},
	{"machine-degraded", 3, 1458, "5e260cfbc7f395d7fd585732b9b29b43f330b25438cd32468a520649c53a939d"},
	{"machine-degraded", 4, 2769, "6cdaa9a1d281d314d4f166cb6a3cf3f3ec20756cae3c1f5ac77fccb3ee11d844"},
	{"machine-degraded", 5, 1362, "0479ae286dc95885c1285dfece8324e70f59d7814e91260da82be7127c4176dd"},
	{"machine-degraded", 6, 2112, "493070114fdce96f1875d9b5de7bf220d1bcc66e0316b7e0a8ab369a7e564920"},
	{"machine-degraded", 7, 2282, "99a0d0410fc8e13f827f53c303b126b8606aca1278214a3b4417f610e09133d9"},
	{"machine-degraded", 8, 1919, "5dfde7542a23edd7f62ac253c508bab688cf3f2034852ed5784afa62a08eabbf"},
	{"machine-degraded", 9, 2703, "9c39694a9b3c1ad3124e011b398b355aeb5307a734661a3940be0ac8170493b9"},
	{"machine-degraded", 10, 2146, "63be9068388433ad2d0c41fe6a4ea46fb974a7bd4e73c2dd8c547c53b1bf9d99"},
	{"machine-degraded", 11, 2190, "b6e27d9ed610eb8ecc03d5f9e7bb7a921f359d055929db4bf7482e12ecf02ef9"},
	{"machine-degraded", 12, 2054, "d571e11df453447db04cbe59f14712067372ade2859446cb87f8ee9797469155"},
	{"machine-degraded", 13, 1476, "cb65d44badf544810c3799ff6d911a7efe42f0a74e308180002f8a8ff4c9e8b3"},
	{"machine-degraded", 14, 1448, "18c4e36e3a2fd0e3fc61bf445934e1d1f364e5ee2fe5e23d14062e0c95afde10"},
	{"machine-degraded", 15, 2422, "eced40ff019e4b4bb4a6c1dfbe741eeecc7f4f82a6f74589bf87d67f75ad0578"},
	{"machine-degraded", 16, 2686, "080db8344df2a78fd825e66894c899499e4e6cbdea6e2eb8af439251e14cf09d"},
	{"machine-degraded", 17, 2490, "6d550de5208322a23e9d81fb5ad4c032691a2da62d36464376efca75d9e4bc33"},
	{"machine-degraded", 18, 2018, "99d12a582602fe774cff6e4254a8e8a1d646783ec3b162982e1cfd28964f6791"},
	{"machine-degraded", 19, 1694, "8ddb64c6aaa299af6f1b81addf206224029d66ef183cc815c7cea572f25c071e"},
	{"machine-degraded", 20, 2065, "cad6d69a5e34c8e1f12aae70276deda309cfab530d596e599d04702ae67a9d83"},
	{"machine-contended", 1, 1210, "826ecf66fafd4d2e7f70074d7fc8a290dbf7cf70a9e1370107c80f2c8293b9a3"},
	{"machine-contended", 2, 1037, "b85b7456780b31139aba58f008f1c0a3496dd556f58e833c4b4d39b739079f62"},
	{"machine-contended", 3, 1039, "bde9f44add0abc6e01a307fd8b5f7d18a442cdd56e8966f005362a4e3ea65ed1"},
	{"machine-contended", 4, 1154, "4a447729cf7f33dc515911b29f780c5f1ea038f3597a65ca9cb9b2226ab9c77e"},
	{"machine-contended", 5, 1123, "19618a7200d719f86c7f72865dda084e69e2255b1b72eb23767977411459808c"},
	{"machine-contended", 6, 1120, "ea09a76922bccec0fbf3a2ae03c6b03f4986fc14e21886418fe5e9f3929b31e5"},
	{"machine-contended", 7, 971, "7104853754534b12da7d50060cc7418f7522d9be863bd1bc6de0903da159c032"},
	{"machine-contended", 8, 1101, "85f2a0bddb062c9522dced59d60206832929a983ddc8cc56b9de57e24ee84beb"},
	{"machine-contended", 9, 1072, "5ea85d3a505dc65e963b2e183c499ae01f0fc8fad2e802dcee44be90a894a168"},
	{"machine-contended", 10, 1066, "c4a2df51f316d87a44d848103476f8a953789556649c07de72f47f36e1d43498"},
	{"machine-contended", 11, 1145, "3610121aeb321d55f9ffa6726f2e80ca242c5e4a95a9583a998d78869f92b2cb"},
	{"machine-contended", 12, 1184, "2b12374cf2607c626b2d04224792c9ecba7d4a30bc5efee5c69655eb9cecf3c0"},
	{"machine-contended", 13, 1082, "2089783488f1f4cc7cdc8285b262cc1645c045f74d23dad9ada78f0ea73bb117"},
	{"machine-contended", 14, 984, "7104853754534b12da7d50060cc7418f7522d9be863bd1bc6de0903da159c032"},
	{"machine-contended", 15, 1012, "e5f026ffd03e753b488445bf71a4b83d53712aad3febf2176c17c0f44d1fff6e"},
	{"machine-contended", 16, 1104, "9a471397a60fcfd31a2525e822d20c9435c3499e2cbe80947ad9388dc271d6d1"},
	{"machine-contended", 17, 1016, "510f9038edc16d8c24908a5ccc4755a6948d2dee369a6c9d917ba7350bdb148c"},
	{"machine-contended", 18, 1030, "017c1c00256ed4ff6d3401c7cccf2dcdcefe07e8d23bc8cec97029933ae9914a"},
	{"machine-contended", 19, 1043, "b2afd49006fd5e97bcb3eceb01939bb1308867c71a708ed2ff36e97f4200d59a"},
	{"machine-contended", 20, 1183, "34f85f689c0fbae750f688a7f11d6ca7a4588ae5fc9f4aaddccd6bbbd448caea"},
	{"cohort 1", 611, 180, "b12a2ab5a7a2250b7b3a3e5bedebc97d25c614ad9a132875dc1dc5d2b226d554"},
	{"cohort 2", 105, 132, "5e1b24c0ad23530f159402183f07fe98d5f8e0dcd090802389e879aeeaa3341c"},
	{"cohort 3", 512, 286, "ef7d69841bbb94ef701b776469d1843a99c54ae735482bc2f6b1826c07e141d2"},
	{"cohort 4", 27, 82, "bdeb3ee41ac8a7af0f6e8bb34fe9519f829209be03168668ff86c0bff932803a"},
	{"cohort 5", 481, 166, "2fbacb22767e9d400887fbdf946ed5da8c12108bdf62f6f3c280d18b7fad47fe"},
	{"cohort 6", 575, 425, "77b527f86b92b173f6a9d47a4a1a0b4829fe5c0035804f84bdbd8e1ddee3ad98"},
	{"cohort 7", 668, 454, "221aa9530a66e18695ac6b112ab218b570c1fa6d702bde6aa8af3412015698c8"},
	{"cohort 8", 674, 412, "0f3a2946e77920437f15ac48755a6548275c7e11533f5d996b982149fd342390"},
	{"cohort 9", 52, 40, "e96bad09a0402a40ec8bc3525877b44c1993908df1bde274891b75a961a0ad31"},
	{"cohort 10", 642, 318, "885ec20a56ebe9137d9151d425ea5b6af1f4d5aa905ff5c963461793e35c1aef"},
	{"cohort 11", 92, 21, "3fb5652c26d54954930a8814faa79ab414c70deb6f9afca51861920f49b39a31"},
	{"cohort 12", 319, 73, "4c55ba166e4cd56ebe61650ab30dea62af539c99b25110d013b82271840a5a25"},
	{"cohort 13", 829, 82, "a4fb1da7d3a6653e2b9b0318ff252fe5a6ff41b665af4c6737d1dadc0a5b15c6"},
	{"cohort 14", 196, 157, "2bc38f62e1fb318cca0907540cc33a6dab6a6f04ffa1228e209fa100dd148b6f"},
	{"cohort 15", 242, 189, "c4731e395f4ff8f74b1074ad6e9edba6cee5e9a45587c18ab5316ad4237ac31a"},
	{"cohort 16", 505, 359, "5ffecfbf7f593e24d1e0fd8cc5758c1520c6dd5fe2acb9bd8a804e84a19725e6"},
	{"cohort 17", 356, 319, "df855050bfd26a677c410d5ef1448975df3aec883ee59672ceab01f73ebd91b9"},
	{"cohort 18", 313, 443, "86ed0763534724144a4028f59ebc9cc4128bed7aff5b5991b49fee87c05cd423"},
	{"cohort 19", 989, 556, "0fcb7b5b9dbbb8560cecd3be6f3c203a31e12fae204a9908b5dbcc7ab81282b5"},
	{"cohort 20", 866, 201, "05e5e4feba5259618653256ce067bf748172d36005ebb0fb6c71a0c63ecfd39d"},
	{"cohort 21", 526, 68, "09968b4112232dc79beaf919dfcb0e488fd19fcccd60f14bf3eb9ea020f1a557"},
	{"cohort 22", 985, 396, "25351144f35fcf7f13201da4738712e51ef948eb0b95a6a1937a43b452264183"},
	{"cohort 23", 555, 212, "6339afb0e0f6b8bb6125ec004e354dcb040996a37cb51b9a3edc1d879deaa81d"},
	{"cohort 24", 469, 273, "eaf1db902f43628d8666c2c91b13f29ab4092161fe4e67ee13d1101c82cd5fee"},
	{"cohort 25", 470, 364, "8ab1b5f5a74ed51954fdb3fb2ea8ba59de92f4fcfd439302fe979d7b6376e488"},
	{"cohort 26", 393, 54, "17f8c26a20ff5cedf9675006d55cbfcae8b2da5a28ebd28bb3bd0374e4bfc3ea"},
	{"cohort 27", 130, 193, "684e16fa7e96bc6e5523e40878c2c89d6a22e7e7b2666bac28221f4bd2833044"},
	{"cohort 28", 582, 47, "04c01a2519c84773239617a2b9cfc03235f3890deadc280e3d0dabc292beb4bd"},
	{"cohort 29", 181, 293, "b7056e0cd77fb4cd7dfe0137dbec2e5171e5e9921996b85f8f604b9b3c8c44ad"},
	{"cohort 30", 254, 146, "36e9ae381bfc9702de974304443086c2833557c2dd2f41711824a7bf0c9fbef2"},
}

// dispatchCase is one run of dispatchTable: a cohort and its seed.
type dispatchCase struct {
	name string
	cfg  machine.Config
	seed uint64
}

// dispatchCases lists dispatchTable's runs: both example machine specs at
// seeds 1–20, then the cohorts drawCohort draws from rng.New(1) to
// rng.New(30), each at a seed drawn after it.
func dispatchCases(t *testing.T) []dispatchCase {
	var cases []dispatchCase
	for _, name := range []string{"machine-degraded", "machine-contended"} {
		spec, err := scenario.Load("../../examples/scenarios/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := spec.MachineConfig()
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 20; seed++ {
			cases = append(cases, dispatchCase{name, cfg, seed})
		}
	}
	for i := uint64(1); i <= 30; i++ {
		src := rng.New(i)
		cfg := drawCohort(src)
		cases = append(cases, dispatchCase{fmt.Sprintf("cohort %d", i), cfg, uint64(1 + src.Intn(1000))})
	}
	return cases
}

// TestMachineDispatchesMatchParent holds machine runs to dispatchTable:
// the same number of dispatched events, the same result. The results
// are bit-exact only where the goldens are (goldentest.BitExact).
func TestMachineDispatchesMatchParent(t *testing.T) {
	goldentest.RequireBitExact(t)
	cases := dispatchCases(t)
	if len(cases) != len(dispatchTable) {
		t.Fatalf("%d cases for %d table rows", len(cases), len(dispatchTable))
	}
	for i, c := range cases {
		row := dispatchTable[i]
		if c.name != row.name || c.seed != row.seed {
			t.Fatalf("case %d is %s seed %d, the table's row %s seed %d", i, c.name, c.seed, row.name, row.seed)
		}
		res, n := machine.SimulateFresh(c.cfg, c.seed)
		if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))); n != row.dispatched || sum != row.sha256 {
			t.Errorf("%s seed %d: %d events dispatched, result %s; want %d, %s", c.name, c.seed, n, sum, row.dispatched, row.sha256)
		}
	}
}
