module rcuarray/benchmark

go 1.22

require rcuarray v0.0.0

replace rcuarray => ../
