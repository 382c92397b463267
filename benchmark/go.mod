module ycsbt/benchmark

go 1.22

require ycsbt v0.0.0

replace ycsbt => ../
