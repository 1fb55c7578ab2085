package executor

import (
	"fmt"
	"testing"

	"dotprov/internal/types"
)

// TestChainsCompareKeysNotWords: a build side chains rows by their key
// words, and a word alone does not make two keys equal. A number whose
// types.KeyBits is a string's hash does not meet the string, and two
// strings whose hashes collide — forged here by overwriting a row's word,
// since no collision of 64-bit FNV-1a turns up by chance — meet only
// themselves.
func TestChainsCompareKeysNotWords(t *testing.T) {
	b := types.NewString("b")
	num := types.NewInt(int64(hashString("b") ^ 1<<63))
	if types.KeyBits(num) != hashString("b") {
		t.Fatal("the number's key word is not the string's hash")
	}
	var spare Spare
	side := spare.side([]int{0})
	defer side.release()
	for _, v := range []types.Value{types.NewString("a"), num, b} {
		side.add(types.Tuple{v}, 0)
	}
	hb := hashString("b")
	side.chunks[0].keys[0] = hb // "a" now hashes as "b" does
	side.index()
	for _, c := range []struct {
		name string
		k    joinKey
		want []int32
	}{
		{"a", joinKey{word: hb, str: "a", isStr: true}, []int32{0}},
		{"b", keyOf(&b), []int32{2}},
		{"the number", keyOf(&num), []int32{1}},
		{"c", keyOf(&[]types.Value{types.NewString("c")}[0]), nil},
	} {
		var got []int32
		for r := side.first(c.k); r >= 0; {
			got = append(got, r)
			_, r = side.row(r, c.k)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("probing %s met rows %v, want %v", c.name, got, c.want)
		}
	}
}
