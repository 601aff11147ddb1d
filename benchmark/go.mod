module colmr/benchmark

go 1.22

require colmr v0.0.0

replace colmr => ../
