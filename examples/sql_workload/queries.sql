-- The workload W of examples/sql_workload: the webshop's reports and
-- lookups over schema.sql's tables, each run once per workload execution.

-- Purchases in the first month.
SELECT count(*) FROM purchases WHERE pu_day BETWEEN DATE 0 AND DATE 30;

-- Revenue per product category: scans purchases and joins the catalog.
SELECT sum(pr_price) FROM purchases, products
WHERE pu_product = pr_id
GROUP BY pr_category;

-- One customer's purchase history, through the customer index.
SELECT count(*) FROM purchases WHERE pu_customer = 3;

-- A product page.
SELECT pr_name, pr_price FROM products WHERE pr_id = 5;

-- Purchases per customer in the north region.
SELECT count(*) FROM purchases, customers
WHERE pu_customer = c_id AND c_region = 'north'
GROUP BY c_name;

-- The most expensive purchases of the year's last quarter.
SELECT max(pr_price) FROM purchases, products
WHERE pu_product = pr_id AND pu_day >= DATE 273;
