package ir_test

import (
	"fmt"
	"testing"

	"fastliveness/internal/gen"
	"fastliveness/internal/ir"
	"fastliveness/internal/ssa"
)

// BenchmarkVerify times ir.Verify on generated SSA functions of 512 to
// 8192 target blocks, shaped like the restart benchmark's corpus (deep
// loop nests, every other size irreducible). Verify runs before every
// analysis build, warm starts included, so its cost scales every build.
func BenchmarkVerify(b *testing.B) {
	for i, blocks := range []int{512, 1024, 2048, 4096, 8192} {
		c := gen.Default(int64(9001 + i))
		c.TargetBlocks = blocks
		c.MaxDepth = 9
		c.Irreducible = i%2 == 1
		f := gen.Generate(fmt.Sprintf("v%d", blocks), c)
		ssa.Construct(f)
		if err := ir.Verify(f); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := ir.Verify(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
