//! Deterministic TPC-H data generator (a `dbgen` clone).
//!
//! Cardinalities, key ranges, the part–supplier assignment formula, date
//! correlations and value distributions follow the TPC-H specification, so
//! every query predicate selects a realistic fraction of the data and the
//! paper's effects (notably the `o_orderdate` ↔ `l_shipdate` correlation
//! that powers MinMax pushdown on BDCC-clustered LINEITEM) are present.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use bdcc_catalog::Database;
use bdcc_storage::{date_to_days, ColumnBuilder, DataType, StoredTable};

use crate::ddl::tpch_catalog;
use crate::text;

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// TPC-H scale factor; SF 1 ≈ 6M lineitems. The paper used SF 100; the
    /// laptop-scale default for experiments here is 0.01–0.1.
    pub scale_factor: f64,
    /// RNG seed; same seed + SF → identical database.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { scale_factor: 0.01, seed: 19_920_101 }
    }
}

impl GenConfig {
    pub fn new(scale_factor: f64) -> GenConfig {
        GenConfig { scale_factor, ..Default::default() }
    }

    pub fn suppliers(&self) -> usize {
        ((10_000.0 * self.scale_factor) as usize).max(10)
    }
    pub fn parts(&self) -> usize {
        ((200_000.0 * self.scale_factor) as usize).max(200)
    }
    pub fn customers(&self) -> usize {
        ((150_000.0 * self.scale_factor) as usize).max(150)
    }
    pub fn orders(&self) -> usize {
        self.customers() * 10
    }
}

/// The spec's supplier-of-part formula: the `i`-th (0..4) supplier of part
/// `p` among `s` suppliers.
pub fn supplier_of_part(p: i64, i: i64, s: i64) -> i64 {
    (p + i * (s / 4 + (p - 1) / s)) % s + 1
}

/// Generate the full database: TPC-H catalog plus all 8 stored tables.
pub fn generate(cfg: &GenConfig) -> Database {
    let catalog = tpch_catalog();
    let mut db = Database::new(catalog);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    attach(&mut db, gen_region(&mut rng));
    attach(&mut db, gen_nation(&mut rng));
    attach(&mut db, gen_supplier(cfg, &mut rng));
    attach(&mut db, gen_customer(cfg, &mut rng));
    let retail_prices = attach(&mut db, gen_part(cfg, &mut rng));
    attach(&mut db, gen_partsupp(cfg, &mut rng));
    let (orders, lineitem) = gen_orders_lineitem(cfg, &mut rng, &retail_prices);
    attach2(&mut db, orders);
    attach2(&mut db, lineitem);
    db
}

fn attach(db: &mut Database, t: (StoredTable, Vec<f64>)) -> Vec<f64> {
    let (table, aux) = t;
    let id = db.catalog().table_id(table.name()).expect("table declared");
    db.attach(id, Arc::new(table));
    aux
}

fn attach2(db: &mut Database, table: StoredTable) {
    let id = db.catalog().table_id(table.name()).expect("table declared");
    db.attach(id, Arc::new(table));
}

fn gen_region(rng: &mut StdRng) -> (StoredTable, Vec<f64>) {
    let n = text::REGIONS.len();
    let mut key = ColumnBuilder::with_capacity(DataType::Int, n);
    let mut name = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut comment = ColumnBuilder::with_capacity(DataType::Str, n);
    for (i, r) in text::REGIONS.iter().enumerate() {
        key.push_i64(i as i64);
        name.push_str(r);
        comment.push_str(&text::comment(rng, 3, 10));
    }
    let t = StoredTable::from_columns(
        "region",
        vec![
            ("r_regionkey".into(), key.finish()),
            ("r_name".into(), name.finish()),
            ("r_comment".into(), comment.finish()),
        ],
    )
    .expect("region columns");
    (t, Vec::new())
}

fn gen_nation(rng: &mut StdRng) -> (StoredTable, Vec<f64>) {
    let n = text::NATIONS.len();
    let mut key = ColumnBuilder::with_capacity(DataType::Int, n);
    let mut name = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut region = ColumnBuilder::with_capacity(DataType::Int, n);
    let mut comment = ColumnBuilder::with_capacity(DataType::Str, n);
    for (i, (nm, r)) in text::NATIONS.iter().enumerate() {
        key.push_i64(i as i64);
        name.push_str(nm);
        region.push_i64(*r);
        comment.push_str(&text::comment(rng, 3, 10));
    }
    let t = StoredTable::from_columns(
        "nation",
        vec![
            ("n_nationkey".into(), key.finish()),
            ("n_name".into(), name.finish()),
            ("n_regionkey".into(), region.finish()),
            ("n_comment".into(), comment.finish()),
        ],
    )
    .expect("nation columns");
    (t, Vec::new())
}

fn gen_supplier(cfg: &GenConfig, rng: &mut StdRng) -> (StoredTable, Vec<f64>) {
    let n = cfg.suppliers();
    let mut key = ColumnBuilder::with_capacity(DataType::Int, n);
    let mut name = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut addr = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut nation = ColumnBuilder::with_capacity(DataType::Int, n);
    let mut phone = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut acctbal = ColumnBuilder::with_capacity(DataType::Float, n);
    let mut comment = ColumnBuilder::with_capacity(DataType::Str, n);
    for i in 1..=n as i64 {
        let nk = rng.random_range(0..25);
        key.push_i64(i);
        name.push_str(&format!("Supplier#{i:09}"));
        addr.push_str(&text::address(rng));
        nation.push_i64(nk);
        phone.push_str(&text::phone(rng, nk));
        acctbal.push_f64((rng.random_range(-99_999..=999_999) as f64) / 100.0);
        comment.push_str(&text::comment(rng, 5, 12));
    }
    let t = StoredTable::from_columns(
        "supplier",
        vec![
            ("s_suppkey".into(), key.finish()),
            ("s_name".into(), name.finish()),
            ("s_address".into(), addr.finish()),
            ("s_nationkey".into(), nation.finish()),
            ("s_phone".into(), phone.finish()),
            ("s_acctbal".into(), acctbal.finish()),
            ("s_comment".into(), comment.finish()),
        ],
    )
    .expect("supplier columns");
    (t, Vec::new())
}

fn gen_customer(cfg: &GenConfig, rng: &mut StdRng) -> (StoredTable, Vec<f64>) {
    let n = cfg.customers();
    let mut key = ColumnBuilder::with_capacity(DataType::Int, n);
    let mut name = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut addr = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut nation = ColumnBuilder::with_capacity(DataType::Int, n);
    let mut phone = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut acctbal = ColumnBuilder::with_capacity(DataType::Float, n);
    let mut segment = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut comment = ColumnBuilder::with_capacity(DataType::Str, n);
    for i in 1..=n as i64 {
        let nk = rng.random_range(0..25);
        key.push_i64(i);
        name.push_str(&format!("Customer#{i:09}"));
        addr.push_str(&text::address(rng));
        nation.push_i64(nk);
        phone.push_str(&text::phone(rng, nk));
        acctbal.push_f64((rng.random_range(-99_999..=999_999) as f64) / 100.0);
        segment.push_str(text::SEGMENTS[rng.random_range(0..5usize)]);
        comment.push_str(&text::comment(rng, 6, 16));
    }
    let t = StoredTable::from_columns(
        "customer",
        vec![
            ("c_custkey".into(), key.finish()),
            ("c_name".into(), name.finish()),
            ("c_address".into(), addr.finish()),
            ("c_nationkey".into(), nation.finish()),
            ("c_phone".into(), phone.finish()),
            ("c_acctbal".into(), acctbal.finish()),
            ("c_mktsegment".into(), segment.finish()),
            ("c_comment".into(), comment.finish()),
        ],
    )
    .expect("customer columns");
    (t, Vec::new())
}

/// The spec's retail price of part `pk`.
pub fn retail_price(pk: i64) -> f64 {
    (90_000 + (pk / 10) % 20_001 + 100 * (pk % 1_000)) as f64 / 100.0
}

fn gen_part(cfg: &GenConfig, rng: &mut StdRng) -> (StoredTable, Vec<f64>) {
    let n = cfg.parts();
    let mut key = ColumnBuilder::with_capacity(DataType::Int, n);
    let mut name = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut mfgr = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut brandc = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut typec = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut size = ColumnBuilder::with_capacity(DataType::Int, n);
    let mut container = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut price = ColumnBuilder::with_capacity(DataType::Float, n);
    let mut comment = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut prices = Vec::with_capacity(n + 1);
    prices.push(0.0); // partkeys are 1-based
    for i in 1..=n as i64 {
        let (m, b) = text::brand(rng);
        key.push_i64(i);
        name.push_str(&text::part_name(rng));
        mfgr.push_str(&format!("Manufacturer#{m}"));
        brandc.push_str(&b);
        typec.push_str(&text::part_type(rng));
        size.push_i64(rng.random_range(1..=50));
        container.push_str(&text::container(rng));
        let p = retail_price(i);
        price.push_f64(p);
        prices.push(p);
        comment.push_str(&text::comment(rng, 3, 8));
    }
    let t = StoredTable::from_columns(
        "part",
        vec![
            ("p_partkey".into(), key.finish()),
            ("p_name".into(), name.finish()),
            ("p_mfgr".into(), mfgr.finish()),
            ("p_brand".into(), brandc.finish()),
            ("p_type".into(), typec.finish()),
            ("p_size".into(), size.finish()),
            ("p_container".into(), container.finish()),
            ("p_retailprice".into(), price.finish()),
            ("p_comment".into(), comment.finish()),
        ],
    )
    .expect("part columns");
    (t, prices)
}

fn gen_partsupp(cfg: &GenConfig, rng: &mut StdRng) -> (StoredTable, Vec<f64>) {
    let parts = cfg.parts() as i64;
    let suppliers = cfg.suppliers() as i64;
    let n = (parts * 4) as usize;
    let mut pk = ColumnBuilder::with_capacity(DataType::Int, n);
    let mut sk = ColumnBuilder::with_capacity(DataType::Int, n);
    let mut qty = ColumnBuilder::with_capacity(DataType::Int, n);
    let mut cost = ColumnBuilder::with_capacity(DataType::Float, n);
    let mut comment = ColumnBuilder::with_capacity(DataType::Str, n);
    for p in 1..=parts {
        for i in 0..4 {
            pk.push_i64(p);
            sk.push_i64(supplier_of_part(p, i, suppliers));
            qty.push_i64(rng.random_range(1..=9_999));
            cost.push_f64((rng.random_range(100..=100_000) as f64) / 100.0);
            comment.push_str(&text::comment(rng, 4, 10));
        }
    }
    let t = StoredTable::from_columns(
        "partsupp",
        vec![
            ("ps_partkey".into(), pk.finish()),
            ("ps_suppkey".into(), sk.finish()),
            ("ps_availqty".into(), qty.finish()),
            ("ps_supplycost".into(), cost.finish()),
            ("ps_comment".into(), comment.finish()),
        ],
    )
    .expect("partsupp columns");
    (t, Vec::new())
}

/// The TPC-H currentdate constant: 1995-06-17 splits shipped from open.
pub fn current_date() -> i64 {
    date_to_days(1995, 6, 17)
}

#[allow(clippy::too_many_lines)]
fn gen_orders_lineitem(
    cfg: &GenConfig,
    rng: &mut StdRng,
    retail_prices: &[f64],
) -> (StoredTable, StoredTable) {
    let n_orders = cfg.orders();
    let parts = cfg.parts() as i64;
    let suppliers = cfg.suppliers() as i64;
    let customers = cfg.customers() as i64;
    let start = date_to_days(1992, 1, 1);
    let end = date_to_days(1998, 12, 31) - 151;
    let cutoff = current_date();

    // Orders columns.
    let mut o_key = ColumnBuilder::with_capacity(DataType::Int, n_orders);
    let mut o_cust = ColumnBuilder::with_capacity(DataType::Int, n_orders);
    let mut o_status = ColumnBuilder::with_capacity(DataType::Str, n_orders);
    let mut o_total = ColumnBuilder::with_capacity(DataType::Float, n_orders);
    let mut o_date = ColumnBuilder::with_capacity(DataType::Date, n_orders);
    let mut o_prio = ColumnBuilder::with_capacity(DataType::Str, n_orders);
    let mut o_clerk = ColumnBuilder::with_capacity(DataType::Str, n_orders);
    let mut o_shipprio = ColumnBuilder::with_capacity(DataType::Int, n_orders);
    let mut o_comment = ColumnBuilder::with_capacity(DataType::Str, n_orders);

    // Lineitem columns (≈ 4 per order).
    let cap = n_orders * 4;
    let mut l_ok = ColumnBuilder::with_capacity(DataType::Int, cap);
    let mut l_pk = ColumnBuilder::with_capacity(DataType::Int, cap);
    let mut l_sk = ColumnBuilder::with_capacity(DataType::Int, cap);
    let mut l_ln = ColumnBuilder::with_capacity(DataType::Int, cap);
    let mut l_qty = ColumnBuilder::with_capacity(DataType::Float, cap);
    let mut l_price = ColumnBuilder::with_capacity(DataType::Float, cap);
    let mut l_disc = ColumnBuilder::with_capacity(DataType::Float, cap);
    let mut l_tax = ColumnBuilder::with_capacity(DataType::Float, cap);
    let mut l_rflag = ColumnBuilder::with_capacity(DataType::Str, cap);
    let mut l_status = ColumnBuilder::with_capacity(DataType::Str, cap);
    let mut l_ship = ColumnBuilder::with_capacity(DataType::Date, cap);
    let mut l_commit = ColumnBuilder::with_capacity(DataType::Date, cap);
    let mut l_receipt = ColumnBuilder::with_capacity(DataType::Date, cap);
    let mut l_instruct = ColumnBuilder::with_capacity(DataType::Str, cap);
    let mut l_mode = ColumnBuilder::with_capacity(DataType::Str, cap);
    let mut l_comment = ColumnBuilder::with_capacity(DataType::Str, cap);

    let clerks = (1_000.0 * cfg.scale_factor).max(1.0) as i64;
    for ok in 1..=n_orders as i64 {
        // Customers with custkey % 3 == 0 place no orders (spec), which
        // Q13 and Q22 rely on.
        let ck = loop {
            let c = rng.random_range(1..=customers);
            if c % 3 != 0 {
                break c;
            }
        };
        let odate = rng.random_range(start..=end);
        let nlines = rng.random_range(1..=7);
        let mut total = 0.0;
        let mut all_f = true;
        let mut all_o = true;
        for ln in 1..=nlines {
            let p = rng.random_range(1..=parts);
            let s = supplier_of_part(p, rng.random_range(0..4), suppliers);
            let qty = rng.random_range(1..=50) as f64;
            let eprice = qty * retail_prices[p as usize];
            let disc = rng.random_range(0..=10) as f64 / 100.0;
            let tax = rng.random_range(0..=8) as f64 / 100.0;
            let ship = odate + rng.random_range(1..=121i64);
            let commit = odate + rng.random_range(30..=90i64);
            let receipt = ship + rng.random_range(1..=30i64);
            let status = if ship > cutoff { "O" } else { "F" };
            let rflag = if receipt <= cutoff {
                if rng.random_bool(0.5) {
                    "R"
                } else {
                    "A"
                }
            } else {
                "N"
            };
            all_f &= status == "F";
            all_o &= status == "O";
            total += eprice * (1.0 + tax) * (1.0 - disc);
            l_ok.push_i64(ok);
            l_pk.push_i64(p);
            l_sk.push_i64(s);
            l_ln.push_i64(ln);
            l_qty.push_f64(qty);
            l_price.push_f64(eprice);
            l_disc.push_f64(disc);
            l_tax.push_f64(tax);
            l_rflag.push_str(rflag);
            l_status.push_str(status);
            l_ship.push_i64(ship);
            l_commit.push_i64(commit);
            l_receipt.push_i64(receipt);
            l_instruct.push_str(text::SHIP_INSTRUCTIONS[rng.random_range(0..4usize)]);
            l_mode.push_str(text::SHIP_MODES[rng.random_range(0..7usize)]);
            l_comment.push_str(&text::comment(rng, 2, 6));
        }
        o_key.push_i64(ok);
        o_cust.push_i64(ck);
        o_status.push_str(if all_f {
            "F"
        } else if all_o {
            "O"
        } else {
            "P"
        });
        o_total.push_f64(total);
        o_date.push_i64(odate);
        o_prio.push_str(text::PRIORITIES[rng.random_range(0..5usize)]);
        o_clerk.push_str(&format!("Clerk#{:09}", rng.random_range(1..=clerks)));
        o_shipprio.push_i64(0);
        o_comment.push_str(&text::comment(rng, 6, 18));
    }

    let orders = StoredTable::from_columns(
        "orders",
        vec![
            ("o_orderkey".into(), o_key.finish()),
            ("o_custkey".into(), o_cust.finish()),
            ("o_orderstatus".into(), o_status.finish()),
            ("o_totalprice".into(), o_total.finish()),
            ("o_orderdate".into(), o_date.finish()),
            ("o_orderpriority".into(), o_prio.finish()),
            ("o_clerk".into(), o_clerk.finish()),
            ("o_shippriority".into(), o_shipprio.finish()),
            ("o_comment".into(), o_comment.finish()),
        ],
    )
    .expect("orders columns");
    let lineitem = StoredTable::from_columns(
        "lineitem",
        vec![
            ("l_orderkey".into(), l_ok.finish()),
            ("l_partkey".into(), l_pk.finish()),
            ("l_suppkey".into(), l_sk.finish()),
            ("l_linenumber".into(), l_ln.finish()),
            ("l_quantity".into(), l_qty.finish()),
            ("l_extendedprice".into(), l_price.finish()),
            ("l_discount".into(), l_disc.finish()),
            ("l_tax".into(), l_tax.finish()),
            ("l_returnflag".into(), l_rflag.finish()),
            ("l_linestatus".into(), l_status.finish()),
            ("l_shipdate".into(), l_ship.finish()),
            ("l_commitdate".into(), l_commit.finish()),
            ("l_receiptdate".into(), l_receipt.finish()),
            ("l_shipinstruct".into(), l_instruct.finish()),
            ("l_shipmode".into(), l_mode.finish()),
            ("l_comment".into(), l_comment.finish()),
        ],
    )
    .expect("lineitem columns");
    (orders, lineitem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tiny() -> Database {
        generate(&GenConfig { scale_factor: 0.002, seed: 42 })
    }

    #[test]
    fn cardinalities_scale() {
        let db = tiny();
        let rows = |t: &str| db.stored_by_name(t).unwrap().rows();
        assert_eq!(rows("region"), 5);
        assert_eq!(rows("nation"), 25);
        assert_eq!(rows("supplier"), 20);
        assert_eq!(rows("part"), 400);
        assert_eq!(rows("partsupp"), 1600);
        assert_eq!(rows("customer"), 300);
        assert_eq!(rows("orders"), 3000);
        let li = rows("lineitem");
        assert!((3000..=21000).contains(&li));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&GenConfig { scale_factor: 0.002, seed: 7 });
        let b = generate(&GenConfig { scale_factor: 0.002, seed: 7 });
        let ta = a.stored_by_name("lineitem").unwrap();
        let tb = b.stored_by_name("lineitem").unwrap();
        assert_eq!(ta.rows(), tb.rows());
        assert_eq!(
            ta.column_by_name("l_partkey").unwrap().as_i64().unwrap(),
            tb.column_by_name("l_partkey").unwrap().as_i64().unwrap()
        );
    }

    #[test]
    fn foreign_keys_are_valid() {
        let db = tiny();
        let check = |from: &str, col: &str, to: &str, tocol: &str| {
            let keys: HashSet<i64> = db
                .stored_by_name(to)
                .unwrap()
                .column_by_name(tocol)
                .unwrap()
                .as_i64()
                .unwrap()
                .iter()
                .copied()
                .collect();
            for v in db.stored_by_name(from).unwrap().column_by_name(col).unwrap().as_i64().unwrap()
            {
                assert!(keys.contains(v), "{from}.{col}={v} missing in {to}.{tocol}");
            }
        };
        check("nation", "n_regionkey", "region", "r_regionkey");
        check("supplier", "s_nationkey", "nation", "n_nationkey");
        check("customer", "c_nationkey", "nation", "n_nationkey");
        check("orders", "o_custkey", "customer", "c_custkey");
        check("lineitem", "l_orderkey", "orders", "o_orderkey");
        check("lineitem", "l_partkey", "part", "p_partkey");
        check("lineitem", "l_suppkey", "supplier", "s_suppkey");
        check("partsupp", "ps_partkey", "part", "p_partkey");
        check("partsupp", "ps_suppkey", "supplier", "s_suppkey");
    }

    #[test]
    fn lineitem_part_supp_pairs_exist_in_partsupp() {
        let db = tiny();
        let ps = db.stored_by_name("partsupp").unwrap();
        let pairs: HashSet<(i64, i64)> = ps
            .column_by_name("ps_partkey")
            .unwrap()
            .as_i64()
            .unwrap()
            .iter()
            .zip(ps.column_by_name("ps_suppkey").unwrap().as_i64().unwrap())
            .map(|(&p, &s)| (p, s))
            .collect();
        let li = db.stored_by_name("lineitem").unwrap();
        let lp = li.column_by_name("l_partkey").unwrap().as_i64().unwrap().to_vec();
        let ls = li.column_by_name("l_suppkey").unwrap().as_i64().unwrap().to_vec();
        for (p, s) in lp.iter().zip(&ls) {
            assert!(pairs.contains(&(*p, *s)));
        }
    }

    #[test]
    fn dates_are_correlated() {
        let db = tiny();
        // Join lineitem to orders manually and verify the spec windows.
        let orders = db.stored_by_name("orders").unwrap();
        let odate: std::collections::HashMap<i64, i64> = orders
            .column_by_name("o_orderkey")
            .unwrap()
            .as_i64()
            .unwrap()
            .iter()
            .zip(orders.column_by_name("o_orderdate").unwrap().as_i64().unwrap())
            .map(|(&k, &d)| (k, d))
            .collect();
        let li = db.stored_by_name("lineitem").unwrap();
        let ok = li.column_by_name("l_orderkey").unwrap().as_i64().unwrap().to_vec();
        let ship = li.column_by_name("l_shipdate").unwrap().as_i64().unwrap().to_vec();
        let receipt = li.column_by_name("l_receiptdate").unwrap().as_i64().unwrap().to_vec();
        for i in 0..ok.len() {
            let od = odate[&ok[i]];
            assert!(ship[i] > od && ship[i] <= od + 121);
            assert!(receipt[i] > ship[i] && receipt[i] <= ship[i] + 30);
        }
    }

    #[test]
    fn a_third_of_customers_have_no_orders() {
        let db = tiny();
        let custs: HashSet<i64> = db
            .stored_by_name("orders")
            .unwrap()
            .column_by_name("o_custkey")
            .unwrap()
            .as_i64()
            .unwrap()
            .iter()
            .copied()
            .collect();
        // No customer with key % 3 == 0 ever appears.
        assert!(custs.iter().all(|c| c % 3 != 0));
    }

    #[test]
    fn status_flags_follow_cutoff() {
        let db = tiny();
        let li = db.stored_by_name("lineitem").unwrap();
        let ship = li.column_by_name("l_shipdate").unwrap().as_i64().unwrap().to_vec();
        let status = li.column_by_name("l_linestatus").unwrap().as_str().unwrap();
        let rflag = li.column_by_name("l_returnflag").unwrap().as_str().unwrap();
        let receipt = li.column_by_name("l_receiptdate").unwrap().as_i64().unwrap().to_vec();
        let cutoff = current_date();
        for i in 0..ship.len() {
            assert_eq!(&status[i] == "O", ship[i] > cutoff);
            assert_eq!(&rflag[i] == "N", receipt[i] > cutoff);
        }
    }

    #[test]
    fn supplier_of_part_in_range() {
        for p in 1..100 {
            for i in 0..4 {
                let s = supplier_of_part(p, i, 20);
                assert!((1..=20).contains(&s));
            }
        }
    }
}
