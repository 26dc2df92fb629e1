// Command kernelgen emits generated kernel sources: the R-blocked
// rank-vector specializations and their code-shape certificates.
//
//	go run ./cmd/kernelgen -vec > internal/kernels/vec_gen.go
//	go run ./cmd/kernelgen -shape > internal/lint/gates/shape_gen.go
//
// -vec and -shape must be regenerated together: the shape rules assert
// the machine code of exactly the specializations -vec emits.
package main

import (
	"flag"
	"fmt"
	"os"

	"stef/internal/kernelgen"
)

func main() {
	vec := flag.Bool("vec", false, "emit the R-blocked rank-vector primitives (internal/kernels/vec_gen.go)")
	shape := flag.Bool("shape", false, "emit the shape rules certifying -vec's output (internal/lint/gates/shape_gen.go)")
	flag.Parse()
	var (
		src []byte
		err error
	)
	switch {
	case *vec && *shape:
		err = fmt.Errorf("-vec and -shape emit different files; pass one at a time")
	case *vec:
		src, err = kernelgen.GenerateVec()
	case *shape:
		src, err = kernelgen.GenerateShapeRules()
	default:
		err = fmt.Errorf("pass -vec or -shape")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kernelgen:", err)
		os.Exit(2)
	}
	os.Stdout.Write(src)
}
