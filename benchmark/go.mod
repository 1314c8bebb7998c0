module scrubjay/benchmark

go 1.22

require scrubjay v0.0.0

replace scrubjay => ../
